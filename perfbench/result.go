package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report. The last line printed is the JSON of
// Correct, Attempted, Failed and Metrics; the saved file adds Details.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	details map[string]any
	order   []string          // figure names in print order
	notes   map[string]string // per-figure annotation for the summary
	// ungated holds the figures the summary prints that are not metrics
	// of BENCHMARK.json.
	ungated map[string]metric
}

func newResult(c *runConfig, d *data) *result {
	return &result{
		Metrics: map[string]metric{},
		notes:   map[string]string{},
		ungated: map[string]metric{},
		details: map[string]any{
			"workload": c.w.name,
			"seed":     c.seed,
			"seconds":  c.seconds,
			"trace":    c.traced,
			"query":    c.query,
			"generated": map[string]any{
				"vertices": c.w.graph.n, "out_degree": c.w.graph.outDeg, "symmetric": c.w.graph.symmetric,
				"edges": len(d.edges), "relio_bytes": len(d.relio),
			},
		},
	}
}

// set records a metric of BENCHMARK.json.
func (r *result) set(name string, v float64, unit, note string) {
	r.add(r.Metrics, name, v, unit, note)
}

// also records a figure the summary prints and the saved report keeps,
// but that BENCHMARK.json does not gate on.
func (r *result) also(name string, v float64, unit, note string) {
	r.add(r.ungated, name, v, unit, note)
}

func (r *result) add(dst map[string]metric, name string, v float64, unit, note string) {
	if _, dup := r.Metrics[name]; !dup {
		if _, dup := r.ungated[name]; !dup {
			r.order = append(r.order, name)
		}
	}
	dst[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// endToEnd fills the end-to-end metrics from an untraced run. The gated
// ones are those that hold steady from run to run on every gated
// workload; the rest are printed next to them. Sub-millisecond and
// queue-bound timings (first tuple, ad-hoc, write and read-after-write
// latencies) move by more than any allowed bound between runs of the
// same code on a shared machine, so they inform but do not gate.
func (r *result) endToEnd(b *bench, setups []float64, wall time.Duration, lateMS []float64, rssMB float64) {
	rec := b.rec
	r.Attempted = rec.attempted
	r.Failed = rec.errorCount()
	r.Correct = rec.outcomes[wrong] == 0
	runTail, writeTail := tailPercentile(rec.run), tailPercentile(rec.write)
	r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	r.set("run_p50_ms", median(rec.run), "ms", fmt.Sprintf("n=%d", len(rec.run)))
	r.set("run_tail_ms", runTail.Value, "ms", tailNote(runTail))
	r.set("tuples_per_s", float64(rec.runTuples)/wall.Seconds(), "1/s", "join tuples delivered by registered runs")
	r.set("peak_rss_mb", rssMB, "MB", "msserve VmHWM")
	r.also("first_tuple_p50_ms", median(rec.firstTuple), "ms", fmt.Sprintf("p25 %.4f", quartile(rec.firstTuple)))
	r.also("runs_per_s", float64(len(rec.run))/wall.Seconds(), "1/s", "")
	if len(rec.adhoc) > 0 {
		r.also("adhoc_p50_ms", median(rec.adhoc), "ms", fmt.Sprintf("n=%d", len(rec.adhoc)))
	}
	if len(rec.write) > 0 {
		r.also("write_p50_ms", median(rec.write), "ms", fmt.Sprintf("n=%d", len(rec.write)))
		r.also("write_tail_ms", writeTail.Value, "ms", tailNote(writeTail))
	}
	if len(rec.raw) > 0 {
		r.also("read_after_write_p50_ms", median(rec.raw), "ms", fmt.Sprintf("n=%d", len(rec.raw)))
	}
	r.also("within_limit_frac", float64(rec.within)/float64(rec.attempted), "frac", fmt.Sprintf("limit %.0f ms", b.w.limitMS))
	r.also("error_frac", float64(r.Failed)/float64(max(1, rec.attempted)), "frac", fmt.Sprintf("%d of %d requests", r.Failed, rec.attempted))

	r.details["ungated"] = r.ungated
	r.details["outcomes"] = map[string]int{"ok": rec.outcomes[ok], "failed": rec.outcomes[failed], "refused": rec.outcomes[refused], "wrong": rec.outcomes[wrong]}
	r.details["errors"] = rec.errs
	r.details["run_tail"] = runTail
	if len(rec.write) > 0 {
		r.details["write_tail"] = writeTail
	}
	r.details["setup_s"] = setups
	r.details["deciles_ms"] = map[string][]float64{
		"run": deciles(rec.run), "first_tuple": deciles(rec.firstTuple), "first_byte": deciles(rec.firstByte),
		"adhoc": deciles(rec.adhoc), "write": deciles(rec.write), "read_after_write": deciles(rec.raw),
	}
	r.details["output"] = map[string]any{
		"registered_runs":        len(rec.run),
		"tuples_per_run":         float64(rec.runTuples) / float64(max(1, len(rec.run))),
		"response_bytes_per_run": float64(rec.runBytes) / float64(max(1, len(rec.run))),
	}
	if lateMS != nil {
		lateTail := tailPercentile(lateMS)
		r.details["generator_late_tail_ms"] = lateTail
		if growing, q := latenessGrows(lateMS); growing {
			r.Correct = false
			rec.errs = append(rec.errs, fmt.Sprintf("open-loop generator fell behind: median lateness of the last quarter %.1f ms", q))
			r.details["errors"] = rec.errs
		}
	}
}

// maxLateMS bounds the open-loop generator's median lateness over the
// last quarter of a run. Beyond it the schedule was not kept, and the
// run measured a different load than the one it claims: invalid, not
// slow.
const maxLateMS = 25

func latenessGrows(lateMS []float64) (bool, float64) {
	q := median(lateMS[len(lateMS)*3/4:])
	return q > maxLateMS, q
}

// deciles returns the 10th, 20th, …, 90th percentiles (nearest rank).
func deciles(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := sortedCopy(xs)
	out := make([]float64, 9)
	for i := range out {
		out[i] = s[(i+1)*len(s)/10]
	}
	return out
}

func tailNote(t tail) string {
	return fmt.Sprintf("p%d, %d samples beyond, n=%d", t.Pct, t.Beyond, t.N)
}

// print writes the summary, each metric by name with its unit, and then
// the one-line JSON result.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %v seed %v trace %v: %v\n", r.details["workload"], r.details["seed"], r.details["trace"], r.details["generated"])
	if out, ok := r.details["output"]; ok {
		fmt.Fprintf(w, "  output: %v\n", out)
	}
	for _, name := range r.order {
		m, gated := r.Metrics[name]
		mark := ""
		if !gated {
			m, mark = r.ungated[name], "(not gated) "
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-8s %s%s\n", name, m.Value, m.Unit, mark, r.notes[name])
	}
	if layers, ok := r.details["layers"].([]layerTime); ok {
		fmt.Fprintf(w, "  self time by span (total over the traced run):\n")
		for _, lt := range layers {
			fmt.Fprintf(w, "    %-28s n=%-5d total %10.3f ms  self %10.3f ms\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

// save writes the full report, details included, under dir.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full := map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics, "details": r.details}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.details["trace"] == true {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.details["workload"], r.details["seed"], trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
