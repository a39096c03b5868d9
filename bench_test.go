// Benchmark harness: one testing.B benchmark per experiment of
// internal/experiments.All (E1–E9; the README's Performance section
// describes the suite), regenerating the paper's Figure 2 measurement and the
// per-theorem scaling behaviours, plus micro-benchmarks of the substrate
// data structures. The experiment bodies live in internal/benchsuite so
// the same measurements feed both `go test -bench` and the tracked
// BENCH_<n>.json trajectory written by `msbench -json`. Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics: findgaps/op is the paper's certificate-size
// measurement, probes/op the outer-loop iterations, cdsops/op the
// constraint-store work.
package minesweeper

import (
	"fmt"
	"testing"

	"minesweeper/internal/baseline"
	"minesweeper/internal/benchsuite"
	"minesweeper/internal/certificate"
	"minesweeper/internal/core"
	"minesweeper/internal/dataset"
	"minesweeper/internal/ordered"
	"minesweeper/internal/reltree"
)

func report(b *testing.B, s *certificate.Stats, n int) {
	b.ReportMetric(float64(s.FindGaps)/float64(n), "findgaps/op")
	b.ReportMetric(float64(s.ProbePoints)/float64(n), "probes/op")
	b.ReportMetric(float64(s.CDSOps)/float64(n), "cdsops/op")
	b.ReportMetric(float64(s.Boxes)/float64(n), "boxes/op")
	b.ReportMetric(float64(s.BoxSkips)/float64(n), "boxskips/op")
}

// --- E1: Figure 2 -----------------------------------------------------

func BenchmarkFigure2Star(b *testing.B) { benchsuite.Fig2Star(b) }
func BenchmarkFigure2Path(b *testing.B) { benchsuite.Fig2Path(b) }
func BenchmarkFigure2Tree(b *testing.B) { benchsuite.Fig2Tree(b) }

// --- E2: Theorem 2.7 β-acyclic scaling --------------------------------

func BenchmarkBetaAcyclicScaling(b *testing.B) {
	for _, M := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("M=%d", M), func(b *testing.B) {
			benchsuite.BetaAcyclic(b, M)
		})
	}
}

// --- E3: Appendix J — Minesweeper vs WCOJ baselines -------------------

func benchmarkAppendixJ(b *testing.B, M int, run func(*core.Problem, []string, []core.AtomSpec) error) {
	gao, atoms := dataset.AppendixJPath(5, M)
	p, err := core.NewProblem(gao, atoms)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(p, gao, atoms); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixJMinesweeper(b *testing.B) { benchsuite.AppendixJMinesweeper(b) }
func BenchmarkAppendixJLeapfrog(b *testing.B)    { benchsuite.AppendixJLeapfrog(b) }

func BenchmarkAppendixJNPRR(b *testing.B) {
	benchmarkAppendixJ(b, 64, func(p *core.Problem, _ []string, _ []core.AtomSpec) error {
		_, err := baseline.NPRRAll(p, nil)
		return err
	})
}

func BenchmarkAppendixJYannakakis(b *testing.B) {
	benchmarkAppendixJ(b, 64, func(_ *core.Problem, gao []string, atoms []core.AtomSpec) error {
		_, err := baseline.Yannakakis(gao, atoms, nil)
		return err
	})
}

// --- E4: Appendix H set intersection -----------------------------------

func BenchmarkSetIntersectionBlocks(b *testing.B)      { benchsuite.SetIntersectionBlocks(b) }
func BenchmarkSetIntersectionInterleaved(b *testing.B) { benchsuite.SetIntersectionInterleaved(b) }

// BenchmarkIntersectCrossover sweeps the max/min set-size ratio across
// the adaptive switch point, running both strategies at every ratio.
// This is the measurement behind core's mergeCrossoverRatio: merge wins
// on balanced inputs, the interval-list CDS on skewed ones.
func BenchmarkIntersectCrossover(b *testing.B) {
	const base = 40000
	for _, ratio := range []int{1, 4, 8, 32, 128} {
		sets := dataset.BlockSets(3, base)
		small := make([]int, 0, base/ratio)
		for i := 0; i < len(sets[0]); i += ratio {
			small = append(small, sets[0][i])
		}
		skewed := append([][]int{small}, sets[1:]...)
		b.Run(fmt.Sprintf("ratio=%d/cds", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.IntersectSets(skewed, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ratio=%d/merge", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.IntersectSetsMerge(skewed, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ratio=%d/adaptive", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.IntersectSetsAdaptive(skewed, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Appendix I bow-tie --------------------------------------------

func BenchmarkBowtieHiddenGap(b *testing.B) { benchsuite.Bowtie(b) }

// --- E6: Theorem 5.4 triangle ------------------------------------------

func BenchmarkTriangleSpecialized(b *testing.B) { benchsuite.TriangleSpecialized(b) }
func BenchmarkTriangleGeneric(b *testing.B)     { benchsuite.TriangleGeneric(b) }

func BenchmarkTriangleLeapfrog(b *testing.B) {
	r, s, t := dataset.TriangleHard(128)
	p, err := core.NewProblem([]string{"A", "B", "C"}, []core.AtomSpec{
		{Name: "R", Attrs: []string{"A", "B"}, Tuples: r},
		{Name: "S", Attrs: []string{"B", "C"}, Tuples: s},
		{Name: "T", Attrs: []string{"A", "C"}, Tuples: t},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.LeapfrogAll(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleListingGraph(b *testing.B) {
	g := dataset.PowerLawGraph(600, 8, true, 5)
	r, s, t := dataset.TriangleGraph(g)
	var stats certificate.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Triangle(r, s, t, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

// --- E7: Proposition 5.3 treewidth family -------------------------------

func BenchmarkTreewidthFamily(b *testing.B) {
	for _, m := range []int{16, 32} {
		b.Run(fmt.Sprintf("w=2/m=%d", m), func(b *testing.B) {
			benchsuite.Treewidth(b, m)
		})
	}
}

// --- E8: Example 4.1 memoization ----------------------------------------

func BenchmarkMemoization(b *testing.B) { benchsuite.Memoization(b) }

// --- E9: Examples B.3/B.4 GAO dependence --------------------------------

func BenchmarkGAODependenceABC(b *testing.B) {
	benchsuite.GAODependence(b, []string{"A", "B", "C"})
}
func BenchmarkGAODependenceCAB(b *testing.B) {
	benchsuite.GAODependence(b, []string{"C", "A", "B"})
}

// --- E10/E11: selection pushdown and streaming aggregation ---------------

func BenchmarkSelectivePushdown(b *testing.B)   { benchsuite.SelectivePushdown(b) }
func BenchmarkSelectivePostFilter(b *testing.B) { benchsuite.SelectivePostFilter(b) }
func BenchmarkAggregateGroupCount(b *testing.B) { benchsuite.AggregateGroupCount(b) }

// --- E12: data-aware GAO planning + dense-domain dictionaries --------

func BenchmarkSparseSkewDefault(b *testing.B)         { benchsuite.SparseSkewDefault(b) }
func BenchmarkSparseSkewPlanned(b *testing.B)         { benchsuite.SparseSkewPlanned(b) }
func BenchmarkSparseHeavyEnumDefault(b *testing.B)    { benchsuite.SparseHeavyEnumDefault(b) }
func BenchmarkSparseHeavyEnumPlannedRaw(b *testing.B) { benchsuite.SparseHeavyEnumPlannedRaw(b) }
func BenchmarkSparseHeavyEnumPlanned(b *testing.B)    { benchsuite.SparseHeavyEnumPlanned(b) }

// --- E13: clustered joins, box-cover vs interval-only CDS ------------

func BenchmarkClusteredBandBoxes(b *testing.B)           { benchsuite.ClusteredBandBoxes(b) }
func BenchmarkClusteredBandIntervalOnly(b *testing.B)    { benchsuite.ClusteredBandIntervalOnly(b) }
func BenchmarkClusteredOverlapBoxes(b *testing.B)        { benchsuite.ClusteredOverlapBoxes(b) }
func BenchmarkClusteredOverlapIntervalOnly(b *testing.B) { benchsuite.ClusteredOverlapIntervalOnly(b) }

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkCDSProbeInsertLoop(b *testing.B) { benchsuite.CDSProbeInsertLoop(b) }
func BenchmarkCDSInsConstraint(b *testing.B)   { benchsuite.CDSInsConstraint(b) }

func BenchmarkRangeSetInsert(b *testing.B) { benchsuite.RangeSetInsert(b) }

func BenchmarkRangeSetNext(b *testing.B) {
	rs := ordered.NewRangeSet()
	for j := 0; j < 10000; j++ {
		rs.Insert(j*10, j*10+5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Next(i % 100000)
	}
}

func BenchmarkSortedListInsertDelete(b *testing.B) { benchsuite.SortedListInsertDelete(b) }

func BenchmarkFindGap(b *testing.B) {
	tuples := make([][]int, 100000)
	for i := range tuples {
		tuples[i] = []int{i * 2}
	}
	tr, err := reltree.New("R", 1, tuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.FindGap(nil, (i*7)%200000)
	}
}

func BenchmarkDyadicInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt := ordered.NewDyadicTree(1024)
		for j := 0; j < 200; j++ {
			dt.InsertAtKey(j%1024, j*5, j*5+20)
		}
	}
}

// --- End-to-end through the public API ----------------------------------

func BenchmarkExecuteMinesweeperTwoPath(b *testing.B) {
	g := dataset.PowerLawGraph(2000, 6, false, 3)
	e, err := NewRelation("E", 2, g.Edges)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	u, err := NewRelation("U", 1, dataset.SampleVertices(2000, 0.01, 9))
	if err != nil {
		b.Fatal(err)
	}
	q2, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
		Atom{Rel: u, Vars: []string{"A"}},
		Atom{Rel: u, Vars: []string{"C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	_ = q
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(q2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleParallel(b *testing.B) {
	g := dataset.PowerLawGraph(600, 8, true, 5)
	r, _, _ := dataset.TriangleGraph(g)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.TriangleParallel(r, r, r, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBTreeVsSortedListInsert(b *testing.B) {
	const n = 10000
	b.Run("btree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := ordered.NewBTree[int]()
			for j := 0; j < n; j++ {
				t.Insert((j*2654435761)%1000000, j)
			}
		}
	})
	b.Run("avl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := ordered.NewSortedList[int]()
			for j := 0; j < n; j++ {
				t.Insert((j*2654435761)%1000000, j)
			}
		}
	})
}

func BenchmarkBTreeVsSortedListLookup(b *testing.B) {
	const n = 100000
	bt := ordered.NewBTree[int]()
	av := ordered.NewSortedList[int]()
	for j := 0; j < n; j++ {
		k := (j * 2654435761) % 10000000
		bt.Insert(k, j)
		av.Insert(k, j)
	}
	b.Run("btree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bt.FindLub(i % 10000000)
		}
	})
	b.Run("avl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			av.FindLub(i % 10000000)
		}
	})
}

func BenchmarkExecuteLimitAnytime(b *testing.B) {
	g := dataset.PowerLawGraph(3000, 8, false, 12)
	e, err := NewRelation("E", 2, g.Edges)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	gao := []string{"A", "B", "C"}
	b.Run("limit10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecuteLimit(q, &Options{GAO: gao}, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Execute(q, &Options{GAO: gao}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedVsCold measures what Prepare buys a served workload:
// "cold" rebuilds every GAO-permuted index per execution (the
// pre-refactor behaviour of Execute), "prepared" builds them once and
// re-executes against the cache. The prepared sub-benchmark also asserts
// that re-execution performs zero reltree builds.
func BenchmarkPreparedVsCold(b *testing.B) {
	g := dataset.PowerLawGraph(2000, 6, false, 3)
	e, err := NewRelation("E", 2, g.Edges)
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQuery(
		Atom{Rel: e, Vars: []string{"A", "B"}},
		Atom{Rel: e, Vars: []string{"B", "C"}},
	)
	if err != nil {
		b.Fatal(err)
	}
	gao := []string{"A", "B", "C"}
	specs := q.atomSpecs()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := core.NewProblem(gao, specs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.MinesweeperAll(p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		pq, err := q.Prepare(&Options{GAO: gao})
		if err != nil {
			b.Fatal(err)
		}
		before := reltree.Builds()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.Execute(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := reltree.Builds(); got != before {
			b.Fatalf("prepared re-execution rebuilt %d indexes", got-before)
		}
	})
	// With a limit, the anytime engine does O(k) probes — so on the cold
	// path the index build dominates, and the prepared path skips it.
	b.Run("cold-limit10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := core.NewProblem(gao, specs)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			if err := core.MinesweeperStream(p, nil, func([]int) bool {
				n++
				return n < 10
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-limit10", func(b *testing.B) {
		b.ReportAllocs()
		pq, err := q.Prepare(&Options{GAO: gao})
		if err != nil {
			b.Fatal(err)
		}
		before := reltree.Builds()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.ExecuteLimit(10); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := reltree.Builds(); got != before {
			b.Fatalf("prepared limit re-execution rebuilt %d indexes", got-before)
		}
	})
}

func BenchmarkSetIntersectionMergeVariant(b *testing.B) {
	sets := dataset.InterleavedSets(4, 5000)
	var stats certificate.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IntersectSetsMerge(sets, &stats); err != nil {
			b.Fatal(err)
		}
	}
	report(b, &stats, b.N)
}

func BenchmarkIntersectAdaptiveSkewed(b *testing.B) { benchsuite.IntersectAdaptiveSkewed(b) }

// --- E14: durability (storage-layer WAL + recovery) -------------------

func BenchmarkDurableAppend(b *testing.B) {
	b.Run("mem", benchsuite.DurableAppendMem)
	b.Run("wal", benchsuite.DurableAppendWAL)
	b.Run("wal-fsync", benchsuite.DurableAppendWALFsync)
}

func BenchmarkDurableRecovery(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("wal=%d", n), func(b *testing.B) {
			benchsuite.DurableRecovery(b, n)
		})
	}
}
