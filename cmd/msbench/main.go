// Command msbench regenerates the paper's evaluation tables.
//
// Every table/figure of "Beyond Worst-case Analysis for Joins with
// Minesweeper" (PODS 2014) plus one measured experiment per quantitative
// theorem is available by name (the index is internal/experiments.All;
// the README's Performance section describes the suite):
//
//	msbench -exp fig2        # Figure 2: N vs |C| on star/3-path/tree
//	msbench -exp appj        # Appendix J: Minesweeper vs WCOJ baselines
//	msbench -exp all         # everything
//	msbench -exp all -scale small   # quick pass
//
// Output is a plain-text table per experiment, with the paper's expected
// shape quoted in the notes line.
//
// It also runs the tracked benchmark suite (internal/benchsuite: E1–E9
// plus the CDS micro-benchmarks) and records it as a machine-readable
// artifact, the repo's benchmark trajectory:
//
//	msbench -json BENCH_1.json -label optimized   # measure + record
//	msbench -json BENCH_1.json -bench 'CDS'       # subset by substring
//	msbench -compare BENCH_0.json,BENCH_1.json    # diff two artifacts
//	msbench -compare old.json,new.json -fail-over 10   # gate: exit 1 on >10% ns regressions
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"minesweeper/internal/benchsuite"
	"minesweeper/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment name or 'all' (fig2, betaacyclic, appj, intersect, bowtie, triangle, treewidth, memo, gao)")
	scaleFlag := flag.String("scale", "full", "full or small")
	jsonOut := flag.String("json", "", "run the tracked benchmark suite and write BENCH_<n>.json to this path instead of the experiment tables")
	label := flag.String("label", "", "label stored in the -json artifact (e.g. baseline, optimized)")
	benchFilter := flag.String("bench", "", "with -json: only run suite benchmarks whose name contains one of these comma-separated substrings")
	compare := flag.String("compare", "", "compare two BENCH_*.json files: old.json,new.json")
	failOver := flag.Float64("fail-over", 0, "with -compare: exit non-zero when any benchmark's ns/op regresses by more than this percentage (0 = report only)")
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *failOver))
	}
	if *jsonOut != "" {
		os.Exit(runJSON(*jsonOut, *label, *benchFilter))
	}

	scale := experiments.Full
	switch *scaleFlag {
	case "full":
	case "small":
		scale = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "msbench: unknown scale %q (want full or small)\n", *scaleFlag)
		os.Exit(2)
	}

	all := experiments.All()
	var selected []struct {
		Name string
		Run  experiments.Runner
	}
	if *exp == "all" {
		selected = all
	} else {
		for _, e := range all {
			if e.Name == *exp {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			names := make([]string, len(all))
			for i, e := range all {
				names[i] = e.Name
			}
			fmt.Fprintf(os.Stderr, "msbench: unknown experiment %q; available: %s\n", *exp, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		printTable(tab, time.Since(start))
	}
}

// runJSON measures the tracked suite and writes the JSON artifact.
func runJSON(path, label, filter string) int {
	var pred func(benchsuite.Bench) bool
	if filter != "" {
		subs := strings.Split(filter, ",")
		pred = func(b benchsuite.Bench) bool {
			for _, s := range subs {
				if s = strings.TrimSpace(s); s != "" && strings.Contains(b.Name, s) {
					return true
				}
			}
			return false
		}
	}
	results := benchsuite.Run(pred, os.Stderr)
	results = append(results, benchsuite.RunBenches(shardedSuite(), pred, os.Stderr)...)
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "msbench: no suite benchmark matches -bench %q\n", filter)
		return 2
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := benchsuite.WriteJSON(f, label, results); err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmarks to %s\n", len(results), path)
	return 0
}

// runCompare prints the per-benchmark deltas of two artifacts. When
// failOver > 0 it acts as a regression gate: any benchmark whose ns/op
// grew by more than failOver percent makes the exit status non-zero,
// so CI (or a pre-merge hook) can hard-fail on a measured slowdown
// instead of just printing it. failOver == 0 keeps the historical
// report-only behaviour.
func runCompare(spec string, failOver float64) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "msbench: -compare wants old.json,new.json")
		return 2
	}
	files := make([]*benchsuite.File, 2)
	for i, p := range parts {
		fh, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
			return 1
		}
		files[i], err = benchsuite.ReadJSON(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "msbench: %s: %v\n", p, err)
			return 1
		}
	}
	deltas := benchsuite.Compare(files[0], files[1])
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "msbench: no common benchmarks")
		return 1
	}
	fmt.Printf("%-32s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ns Δ", "old allocs", "new allocs", "allocs Δ")
	var regressed []string
	for _, d := range deltas {
		fmt.Printf("%-32s %14.0f %14.0f %7.0f%% %12.1f %12.1f %7.0f%%\n",
			d.Name, d.OldNs, d.NewNs, (d.NsRatio()-1)*100,
			d.OldAllocs, d.NewAllocs, (d.AllocsRatio()-1)*100)
		if failOver > 0 && (d.NsRatio()-1)*100 > failOver {
			regressed = append(regressed, fmt.Sprintf("%s (+%.0f%%)", d.Name, (d.NsRatio()-1)*100))
		}
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "msbench: %d benchmark(s) regressed beyond -fail-over %.1f%%: %s\n",
			len(regressed), failOver, strings.Join(regressed, ", "))
		return 1
	}
	return 0
}

func printTable(t *experiments.Table, elapsed time.Duration) {
	fmt.Printf("== %s — %s (ran in %s)\n", t.ID, t.Title, elapsed.Round(time.Millisecond))
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	printRow(t.Headers)
	for i := range widths {
		widths[i] = len(strings.Repeat("-", widths[i]))
	}
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Notes != "" {
		fmt.Printf("   note: %s\n", t.Notes)
	}
	fmt.Println()
}
