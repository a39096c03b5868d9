// Package benchsuite defines the repo's tracked benchmark suite: one
// entry per experiment of internal/experiments.All (E1–E9), the selection
// pushdown and streaming aggregation workloads (E10/E11), and the CDS /
// hot path micro-benchmarks, each runnable both as a conventional testing.B
// benchmark (bench_test.go delegates here) and programmatically via
// testing.Benchmark for the machine-readable BENCH_<n>.json trajectory
// that `msbench -json` emits.
//
// Names are stable identifiers: comparisons between two BENCH_*.json
// files (and the CI benchstat job) match on them, so renaming an entry
// breaks the recorded trajectory — add new entries instead.
package benchsuite

import (
	"testing"

	"minesweeper/internal/baseline"
	"minesweeper/internal/cds"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/dataset"
	"minesweeper/internal/experiments"
	"minesweeper/internal/ordered"
)

// Bench is one tracked benchmark: a stable name, the experiment it
// measures (E1–E9, or "micro" for substrate benchmarks), and the body.
type Bench struct {
	Name string
	Exp  string
	F    func(b *testing.B)
}

// Suite returns the tracked benchmarks in a fixed order.
func Suite() []Bench {
	return []Bench{
		{"Figure2Star", "E1", Fig2Star},
		{"Figure2Path", "E1", Fig2Path},
		{"Figure2Tree", "E1", Fig2Tree},
		{"BetaAcyclicScaling/M=64", "E2", func(b *testing.B) { BetaAcyclic(b, 64) }},
		{"AppendixJMinesweeper", "E3", AppendixJMinesweeper},
		{"AppendixJLeapfrog", "E3", AppendixJLeapfrog},
		{"SetIntersectionBlocks", "E4", SetIntersectionBlocks},
		{"SetIntersectionInterleaved", "E4", SetIntersectionInterleaved},
		{"BowtieHiddenGap", "E5", Bowtie},
		{"TriangleSpecialized", "E6", TriangleSpecialized},
		{"TriangleGeneric", "E6", TriangleGeneric},
		{"TreewidthFamily/w=2/m=32", "E7", func(b *testing.B) { Treewidth(b, 32) }},
		{"Memoization", "E8", Memoization},
		{"GAODependenceABC", "E9", func(b *testing.B) { GAODependence(b, []string{"A", "B", "C"}) }},
		{"GAODependenceCAB", "E9", func(b *testing.B) { GAODependence(b, []string{"C", "A", "B"}) }},
		{"SelectivePushdown/sel=1%", "E10", SelectivePushdown},
		{"SelectivePostFilter", "E10", SelectivePostFilter},
		{"AggregateGroupCount", "E11", AggregateGroupCount},
		{"SparseSkew/Default", "E12", SparseSkewDefault},
		{"SparseSkew/Planned", "E12", SparseSkewPlanned},
		{"SparseHeavyEnum/Default", "E12", SparseHeavyEnumDefault},
		{"SparseHeavyEnum/PlannedRaw", "E12", SparseHeavyEnumPlannedRaw},
		{"SparseHeavyEnum/Planned", "E12", SparseHeavyEnumPlanned},
		{"ClusteredBand/Boxes", "E13", ClusteredBandBoxes},
		{"ClusteredBand/IntervalOnly", "E13", ClusteredBandIntervalOnly},
		{"ClusteredOverlap/Boxes", "E13", ClusteredOverlapBoxes},
		{"ClusteredOverlap/IntervalOnly", "E13", ClusteredOverlapIntervalOnly},
		{"DurableAppend/mem", "E14", DurableAppendMem},
		{"DurableAppend/wal", "E14", DurableAppendWAL},
		{"DurableAppend/wal-fsync", "E14", DurableAppendWALFsync},
		{"DurableRecovery/wal=1024", "E14", func(b *testing.B) { DurableRecovery(b, 1024) }},
		{"DurableRecovery/wal=16384", "E14", func(b *testing.B) { DurableRecovery(b, 16384) }},
		{"CDSProbeInsertLoop", "micro", CDSProbeInsertLoop},
		{"CDSInsConstraint", "micro", CDSInsConstraint},
		{"RangeSetInsert", "micro", RangeSetInsert},
		{"SortedListInsertDelete", "micro", SortedListInsertDelete},
		{"IntersectAdaptiveSkewed", "micro", IntersectAdaptiveSkewed},
	}
}

func report(b *testing.B, s *certificate.Stats, n int) {
	b.ReportMetric(float64(s.FindGaps)/float64(n), "findgaps/op")
	b.ReportMetric(float64(s.ProbePoints)/float64(n), "probes/op")
	b.ReportMetric(float64(s.CDSOps)/float64(n), "cdsops/op")
	b.ReportMetric(float64(s.Boxes)/float64(n), "boxes/op")
	b.ReportMetric(float64(s.BoxSkips)/float64(n), "boxskips/op")
}

// --- E1: Figure 2 ----------------------------------------------------

func fig2(b *testing.B, build func(*dataset.Graph, [][][]int) ([]string, []core.AtomSpec)) {
	preset := dataset.Presets[1] // Epinions-like: smallest
	preset.N = 2000
	preset.SampleP = 0.005
	g, samples := preset.Build()
	gao, atoms := build(g, samples)
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// Fig2Star, Fig2Path and Fig2Tree are the three query shapes of the
// paper's Figure 2 measurement (E1).
func Fig2Star(b *testing.B) { fig2(b, dataset.StarQuery) }
func Fig2Path(b *testing.B) { fig2(b, dataset.PathQuery) }
func Fig2Tree(b *testing.B) { fig2(b, dataset.TreeQuery) }

// --- E2: Theorem 2.7 β-acyclic scaling -------------------------------

func BetaAcyclic(b *testing.B, m int) {
	gao, atoms := dataset.AppendixJPath(5, m)
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- E3: Appendix J --------------------------------------------------

func appendixJ(b *testing.B, run func(*core.Problem) error) {
	gao, atoms := dataset.AppendixJPath(5, 64)
	_ = gao
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(p); err != nil {
			b.Fatal(err)
		}
	}
}

func AppendixJMinesweeper(b *testing.B) {
	appendixJ(b, func(p *core.Problem) error {
		_, err := core.MinesweeperAll(p, nil)
		return err
	})
}

func AppendixJLeapfrog(b *testing.B) {
	appendixJ(b, func(p *core.Problem) error {
		_, err := baseline.LeapfrogAll(p, nil)
		return err
	})
}

// --- E4: Appendix H set intersection ---------------------------------

func SetIntersectionBlocks(b *testing.B) {
	sets := dataset.BlockSets(4, 50000)
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IntersectSets(sets, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

func SetIntersectionInterleaved(b *testing.B) {
	sets := dataset.InterleavedSets(4, 5000)
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IntersectSets(sets, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- E5: Appendix I bow-tie ------------------------------------------

func Bowtie(b *testing.B) {
	const n = 20000
	var s [][]int
	for i := 1; i <= n; i++ {
		s = append(s, []int{1, n + 1 + i}, []int{3, i})
	}
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Bowtie([]int{2}, s, []int{n + 1}, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- E6: Theorem 5.4 triangle ----------------------------------------

func TriangleSpecialized(b *testing.B) {
	r, s, t := dataset.TriangleHard(128)
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Triangle(r, s, t, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

func TriangleGeneric(b *testing.B) {
	r, s, t := dataset.TriangleHard(128)
	p, err := core.NewProblem([]string{"A", "B", "C"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
		{Name: "T", Attrs: []string{"A", "C"}, Tuples: t},
	})
	if err != nil {
		b.Fatal(err)
	}
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- E7: Proposition 5.3 treewidth family ----------------------------

func Treewidth(b *testing.B, m int) {
	gao, atoms := dataset.CliqueInstance(2, m)
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- E8: Example 4.1 memoization -------------------------------------

func Memoization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MemoizationEffect(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: Examples B.3/B.4 GAO dependence -----------------------------

func GAODependence(b *testing.B, gao []string) {
	atoms := dataset.ExampleB3(24)
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- hot-path micro-benchmarks ---------------------------------------

// CDSProbeInsertLoop is the CDS steady state in isolation: the
// GetProbePoint / InsConstraint alternation of Algorithm 2's outer loop
// over a three-attribute tree, repeatedly ruling out the probe it is
// handed. One op is a full drain of a fresh tree, so allocs/op captures
// everything the CDS allocates over its lifetime.
func CDSProbeInsertLoop(b *testing.B) {
	const span = 256
	stars := cds.Pattern{cds.Star, cds.Star}
	ruleOut := cds.Pattern{cds.Eq(0)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := cds.NewTree(3)
		// Bound every attribute to [0, span) so the drain terminates.
		for d := 0; d < 3; d++ {
			tr.InsConstraint(cds.Constraint{Prefix: stars[:d], Lo: ordered.NegInf, Hi: 0})
			tr.InsConstraint(cds.Constraint{Prefix: stars[:d], Lo: span - 1, Hi: ordered.PosInf})
		}
		n := 0
		for t := tr.GetProbePoint(); t != nil; t = tr.GetProbePoint() {
			// Rule out the whole subtree under the probe's first value, so
			// the drain visits each first-attribute value exactly once.
			ruleOut[0] = cds.Eq(t[0])
			tr.InsConstraint(cds.Constraint{Prefix: ruleOut, Lo: ordered.NegInf, Hi: ordered.PosInf})
			n++
			if n > 4*span {
				b.Fatal("CDS drain did not converge")
			}
		}
	}
}

// CDSInsConstraint measures constraint insertion alone: a stream of
// overlapping star-pattern intervals that continually merge, which is
// the memoization write pattern of Algorithm 4 line 13.
func CDSInsConstraint(b *testing.B) {
	tr := cds.NewTree(2)
	prefix := cds.Pattern{cds.Star} // hoisted: InsConstraint never retains it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := (i * 7) % 4096
		tr.InsConstraint(cds.Constraint{Prefix: prefix, Lo: v - 2, Hi: v + 2})
	}
}

func RangeSetInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs := ordered.NewRangeSet()
		for j := 0; j < 100; j++ {
			rs.Insert(j*10, j*10+5)
		}
	}
}

// SortedListInsertDelete exercises the DeleteInterval recycling path:
// keys are inserted and then swallowed by interval deletions, the
// churn pattern InsConstraint puts on every CDS node.
func SortedListInsertDelete(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := ordered.NewSortedList[int]()
		for round := 0; round < 20; round++ {
			for j := 0; j < 50; j++ {
				s.Insert(j*3, j)
			}
			s.DeleteInterval(ordered.NegInf, ordered.PosInf)
		}
	}
}

// IntersectAdaptiveSkewed measures the adaptive set-intersection entry
// point on a skewed instance (one tiny set against large ones), the
// regime where the gap-skipping CDS strategy must win.
func IntersectAdaptiveSkewed(b *testing.B) {
	sets := dataset.BlockSets(4, 50000)
	small := make([]int, 0, len(sets[0])/64)
	for i := 0; i < len(sets[0]); i += 64 {
		small = append(small, sets[0][i])
	}
	skewed := append([][]int{small}, sets[1:]...)
	var stats certificate.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IntersectSetsAdaptive(skewed, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}
