// Package experiments regenerates every table and figure of the paper's
// evaluation, plus one measured experiment per quantitative theorem
// (E1–E9, indexed by All; the README's Performance section describes
// the suite). Each experiment returns a
// Table so the msbench command can print it and the benchmark suite can
// assert on its shape.
package experiments

import (
	"fmt"
	"time"

	"minesweeper/internal/baseline"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/dataset"
)

// Table is one experiment's result in paper-style rows.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   string
}

// Registry maps experiment names to their runners. Scale ∈ {Small, Full}
// lets tests run the same code cheaply.
type Scale int

// Experiment scales.
const (
	Small Scale = iota // unit-test sized
	Full               // msbench sized
)

// Runner computes one experiment.
type Runner func(scale Scale) (*Table, error)

// All is the experiment index: every experiment by name, in the order
// `msbench -exp all` runs them.
func All() []struct {
	Name string
	Run  Runner
} {
	return []struct {
		Name string
		Run  Runner
	}{
		{"fig2", Figure2},
		{"betaacyclic", BetaAcyclicScaling},
		{"appj", AppendixJComparison},
		{"intersect", IntersectionAdaptivity},
		{"bowtie", BowtieAdaptivity},
		{"triangle", TriangleCDSComparison},
		{"treewidth", TreewidthFamily},
		{"memo", MemoizationEffect},
		{"gao", GAODependence},
		{"gaoquality", GAOQuality},
		{"longpath", LayeredPathComparison},
	}
}

func fmtCount(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	}
	return fmt.Sprintf("%d", v)
}

// Figure2 reproduces Figure 2 of the paper: input size N versus measured
// certificate size |C| (the number of FindGap operations) for the star,
// 3-path and tree queries over the three (simulated) graph datasets.
// The paper's phenomenon: |C| is orders of magnitude smaller than N.
func Figure2(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E1/Figure 2",
		Title:   "Input size (N) versus certificate size (|C|, FindGap count)",
		Headers: []string{"query", "dataset", "N", "|C|", "N/|C|", "Z"},
		Notes: "Paper reports e.g. star/Orkut N=352M vs |C|=214K (ratio ~1600x). " +
			"Datasets here are synthetic scaled stand-ins; the shape to check is |C| << N.",
	}
	presets := dataset.Presets
	if scale == Small {
		presets = append([]dataset.GraphPreset(nil), presets...)
		for i := range presets {
			presets[i].N /= 20
			presets[i].SampleP *= 4
		}
	}
	type builder struct {
		name string
		fn   func(*dataset.Graph, [][][]int) ([]string, []core.AtomSpec)
	}
	builders := []builder{{"Star", dataset.StarQuery}, {"3-path", dataset.PathQuery}, {"Tree", dataset.TreeQuery}}
	for _, b := range builders {
		for _, preset := range presets {
			g, samples := preset.Build()
			gao, atoms := b.fn(g, samples)
			p, err := core.NewProblem(gao, atoms)
			if err != nil {
				return nil, err
			}
			var stats certificate.Stats
			out, err := core.MinesweeperAll(p, &stats)
			if err != nil {
				return nil, err
			}
			n := int64(p.InputSize())
			c := stats.CertificateEstimate()
			ratio := float64(n) / float64(max64(c, 1))
			t.Rows = append(t.Rows, []string{
				b.name, preset.Name, fmtCount(n), fmtCount(c),
				fmt.Sprintf("%.0fx", ratio), fmtCount(int64(len(out))),
			})
		}
	}
	return t, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BetaAcyclicScaling demonstrates Theorem 2.7: on the Appendix J path
// family (β-acyclic, nested elimination order), Minesweeper's probe and
// FindGap counts grow linearly with the certificate (~mM) while the input
// grows quadratically (~mM²).
func BetaAcyclicScaling(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E2/Theorem 2.7",
		Title:   "Minesweeper cost vs certificate size on β-acyclic paths",
		Headers: []string{"m", "M", "N(input)", "~|C|(=mM)", "probes", "findgaps", "probes/M"},
		Notes: "Theorem 2.7: Õ(|C|+Z) for β-acyclic queries. probes/M should stay " +
			"near-constant as M doubles while N grows 4x.",
	}
	const m = 5
	sizes := []int{8, 16, 32, 64}
	if scale == Full {
		sizes = []int{16, 32, 64, 128, 256}
	}
	for _, M := range sizes {
		gao, atoms := dataset.AppendixJPath(m, M)
		p, err := core.NewProblem(gao, atoms)
		if err != nil {
			return nil, err
		}
		var stats certificate.Stats
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m), fmt.Sprintf("%d", M),
			fmtCount(int64(p.InputSize())), fmtCount(int64(m * M)),
			fmtCount(stats.ProbePoints), fmtCount(stats.FindGaps),
			fmt.Sprintf("%.2f", float64(stats.ProbePoints)/float64(M)),
		})
	}
	return t, nil
}

// AppendixJComparison runs Minesweeper against Yannakakis, Leapfrog and
// NPRR on the Appendix J family, reporting wall time and comparison
// counts: the worst-case-optimal algorithms are ω(|C|) here.
func AppendixJComparison(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E3/Appendix J",
		Title:   "Minesweeper vs worst-case-optimal algorithms on the hard path family",
		Headers: []string{"M", "N(input)", "engine", "time", "probes/cmps"},
		Notes: "Appendix J: Yannakakis/NPRR/LFTJ take Ω(mM²) while Minesweeper is Õ(mM). " +
			"Expect the Minesweeper column to grow ~M and the others ~M².",
	}
	const m = 5
	sizes := []int{16, 32, 64}
	if scale == Full {
		sizes = []int{32, 64, 128, 256}
	}
	for _, M := range sizes {
		gao, atoms := dataset.AppendixJPath(m, M)
		p, err := core.NewProblem(gao, atoms)
		if err != nil {
			return nil, err
		}
		n := fmtCount(int64(p.InputSize()))
		run := func(name string, fn func() (int64, error)) error {
			start := time.Now()
			work, err := fn()
			if err != nil {
				return err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", M), n, name,
				time.Since(start).Round(10 * time.Microsecond).String(), fmtCount(work),
			})
			return nil
		}
		if err := run("minesweeper", func() (int64, error) {
			var s certificate.Stats
			_, err := core.MinesweeperAll(p, &s)
			return s.ProbePoints, err
		}); err != nil {
			return nil, err
		}
		if err := run("leapfrog", func() (int64, error) {
			var s certificate.Stats
			_, err := baseline.LeapfrogAll(p, &s)
			return s.FindGaps, err
		}); err != nil {
			return nil, err
		}
		if err := run("nprr", func() (int64, error) {
			var s certificate.Stats
			_, err := baseline.NPRRAll(p, &s)
			return s.Comparisons, err
		}); err != nil {
			return nil, err
		}
		if err := run("yannakakis", func() (int64, error) {
			var s certificate.Stats
			_, err := baseline.Yannakakis(gao, atoms, &s)
			return s.Comparisons, err
		}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// IntersectionAdaptivity contrasts a constant-certificate intersection
// instance (disjoint blocks) with a Θ(N)-certificate one (interleaved):
// Appendix H / Theorem H.4.
func IntersectionAdaptivity(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E4/Appendix H",
		Title:   "Set intersection: probes track certificate size, not input size",
		Headers: []string{"family", "m", "N(per set)", "probes", "findgaps", "Z"},
		Notes:   "Block family has |C|=O(m); interleaved has |C|=Θ(mN).",
	}
	n := 20000
	if scale == Small {
		n = 2000
	}
	for _, m := range []int{2, 4, 8} {
		for _, fam := range []string{"blocks", "interleaved"} {
			var sets [][]int
			if fam == "blocks" {
				sets = dataset.BlockSets(m, n)
			} else {
				sets = dataset.InterleavedSets(m, n)
			}
			var stats certificate.Stats
			out, err := core.IntersectSets(sets, &stats)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fam, fmt.Sprintf("%d", m), fmtCount(int64(n)),
				fmtCount(stats.ProbePoints), fmtCount(stats.FindGaps), fmt.Sprintf("%d", len(out)),
			})
		}
	}
	return t, nil
}

// BowtieAdaptivity sweeps the hidden-gap bow-tie instance of Appendix I:
// the certificate is O(1) regardless of N, so probe counts must stay flat.
func BowtieAdaptivity(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E5/Appendix I",
		Title:   "Bow-tie query: near instance-optimal probes on the hidden-gap family",
		Headers: []string{"N", "input", "probes", "findgaps", "Z"},
		Notes:   "Theorem I.4: O((|C|+Z) log N); this family has |C|=O(1).",
	}
	sizes := []int{1000, 4000, 16000}
	if scale == Small {
		sizes = []int{200, 800}
	}
	for _, n := range sizes {
		var s [][]int
		for i := 1; i <= n; i++ {
			s = append(s, []int{1, n + 1 + i}, []int{3, i})
		}
		var stats certificate.Stats
		out, err := core.Bowtie([]int{2}, s, []int{n + 1}, &stats)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmtCount(int64(n)), fmtCount(int64(2 * n)),
			fmt.Sprintf("%d", stats.ProbePoints), fmt.Sprintf("%d", stats.FindGaps),
			fmt.Sprintf("%d", len(out)),
		})
	}
	return t, nil
}

// TriangleCDSComparison contrasts the dyadic-CDS triangle engine
// (Theorem 5.4, Õ(|C|^{3/2})) with generic Minesweeper (Õ(|C|²) here) on
// the family where the generic CDS must enumerate Ω(K²) (a,b) pairs.
func TriangleCDSComparison(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E6/Theorem 5.4",
		Title:   "Triangle query: dyadic CDS vs generic CDS work",
		Headers: []string{"K", "N(input)", "special cdsops", "generic cdsops", "generic/special"},
		Notes: "On TriangleHard(K): |C|=O(K); the generic CDS iterates Θ(K²) (a,b) " +
			"pairs (visible as CDS ops/backtracks), the dyadic CDS prunes whole " +
			"B-subtrees and stays Õ(K). Expect the ratio column to double with K.",
	}
	sizes := []int{16, 32, 64}
	if scale == Full {
		sizes = []int{32, 64, 128}
	}
	for _, k := range sizes {
		r, s, ty := dataset.TriangleHard(k)
		var sp certificate.Stats
		if _, err := core.Triangle(r, s, ty, &sp); err != nil {
			return nil, err
		}
		p, err := core.NewProblem([]string{"A", "B", "C"}, []core.AtomSpec{
			{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
			{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
			{Name: "T", Attrs: []string{"A", "C"}, Tuples: ty},
		})
		if err != nil {
			return nil, err
		}
		var gp certificate.Stats
		if _, err := core.MinesweeperAll(p, &gp); err != nil {
			return nil, err
		}
		ratio := float64(gp.CDSOps) / float64(max64(sp.CDSOps, 1))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), fmtCount(int64(len(r) + len(s) + len(ty))),
			fmtCount(sp.CDSOps), fmtCount(gp.CDSOps), fmt.Sprintf("%.1fx", ratio),
		})
	}
	return t, nil
}

// TreewidthFamily demonstrates Proposition 5.3: on the clique family Q_w,
// Minesweeper's probe count grows ~m^w although |C| = O(wm).
func TreewidthFamily(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E7/Proposition 5.3",
		Title:   "Treewidth lower bound: CDS backtracks grow as m^w while |C| = O(wm)",
		Headers: []string{"w", "m", "N(input)", "~|C|(=wm)", "probes", "backtracks", "backtracks/m^w"},
		Notes: "Proposition 5.3 counts executions of the chain-merge step (Algorithm 6 " +
			"line 17): each doomed prefix dies inside getProbePoint with one back-track. " +
			"For w=2 the backtracks/m^w column stays near-constant (the Ω(m²) bound is " +
			"exact). For w=3 this implementation's shadow memoization caches merged " +
			"wildcard coverage across sibling prefixes and lands near ~3m², beating the " +
			"paper's Ω(m³) bound for their CDS variant — see EXPERIMENTS.md. Runs with " +
			"DisableBoxes: the box-cover CDS sidesteps this lower bound altogether " +
			"(geometric resolution retires each doomed prefix family in one backtrack), " +
			"so the m^w growth only shows on the paper's interval-only CDS.",
	}
	var cases [][2]int
	if scale == Small {
		cases = [][2]int{{2, 8}, {2, 16}, {2, 32}, {3, 6}, {3, 10}}
	} else {
		cases = [][2]int{{2, 16}, {2, 32}, {2, 64}, {3, 8}, {3, 16}, {3, 24}}
	}
	for _, c := range cases {
		w, m := c[0], c[1]
		gao, atoms := dataset.CliqueInstance(w, m)
		p, err := core.NewProblem(gao, atoms)
		if err != nil {
			return nil, err
		}
		p.DisableBoxes = true // the Ω(m^w) bound targets the interval-only CDS
		var stats certificate.Stats
		if _, err := core.MinesweeperAll(p, &stats); err != nil {
			return nil, err
		}
		mw := 1
		for i := 0; i < w; i++ {
			mw *= m
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w), fmt.Sprintf("%d", m),
			fmtCount(int64(p.InputSize())), fmtCount(int64(w * m)),
			fmtCount(stats.ProbePoints), fmtCount(stats.Backtracks),
			fmt.Sprintf("%.3f", float64(stats.Backtracks)/float64(mw)),
		})
	}
	return t, nil
}

// MemoizationEffect replays Example 4.1 at growing N and reports total
// CDS work, which must scale ~N² (with memoization) rather than the
// brute-force N³.
func MemoizationEffect(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E8/Example 4.1",
		Title:   "Lazy constraint inference: CDS work is ~N² with memoization, superquadratic without",
		Headers: []string{"N", "memo ops", "memo ops/N²", "no-memo ops", "no-memo ops/N²"},
		Notes: "With memoization (Section 4.1) the ops/N² column stays constant; the " +
			"ablated CDS re-derives every inference and drifts toward the brute-force N³.",
	}
	sizes := []int{8, 16, 32}
	if scale == Full {
		sizes = []int{16, 32, 64, 128}
	}
	for _, n := range sizes {
		withMemo, err := runExample41(n, true)
		if err != nil {
			return nil, err
		}
		noMemo, err := runExample41(n, false)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtCount(withMemo.CDSOps),
			fmt.Sprintf("%.1f", float64(withMemo.CDSOps)/float64(n*n)),
			fmtCount(noMemo.CDSOps),
			fmt.Sprintf("%.1f", float64(noMemo.CDSOps)/float64(n*n)),
		})
	}
	return t, nil
}

// GAODependence measures Examples B.3/B.4: the same data under GAO
// (A,B,C) needs a Θ(n²) certificate while (C,A,B) needs only Θ(n).
func GAODependence(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E9/Examples B.3-B.4",
		Title:   "Certificate size depends on the GAO (same data, two orders)",
		Headers: []string{"n", "N(input)", "GAO", "findgaps", "probes"},
		Notes:   "Expect findgaps ~n² under (A,B,C) and ~n under (C,A,B).",
	}
	sizes := []int{8, 16, 32}
	if scale == Full {
		sizes = []int{16, 32, 64}
	}
	for _, n := range sizes {
		atoms := dataset.ExampleB3(n)
		for _, gao := range [][]string{{"A", "B", "C"}, {"C", "A", "B"}} {
			p, err := core.NewProblem(gao, atoms)
			if err != nil {
				return nil, err
			}
			var stats certificate.Stats
			if _, err := core.MinesweeperAll(p, &stats); err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), fmtCount(int64(p.InputSize())),
				fmt.Sprintf("%v", gao), fmtCount(stats.FindGaps), fmtCount(stats.ProbePoints),
			})
		}
	}
	return t, nil
}
