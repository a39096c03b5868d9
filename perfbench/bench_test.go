package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{n: 1000, pct: 99, value: 990},
		{n: 100, pct: 90, value: 90},
		{n: 37, pct: 72, value: 27},
		{n: 25, pct: 60, value: 15},
		{n: 11, pct: 9, value: 1},
	} {
		got := tailPercentile(seq(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tailBeyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%d = %v with %d beyond", tc.n, got, tc.pct, tc.value, tailBeyond)
		}
	}
	if got := tailPercentile(seq(10)); got.Pct != 100 || got.Value != 10 || got.Beyond != 0 {
		t.Errorf("n=10: got %+v, want the maximum flagged as p100 with none beyond", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "catalog.insert", StartNS: 0, EndNS: 100},
		// Two overlapping children cover [10, 50]; a third runs past the
		// parent's end and counts only up to it: 40 + 10 covered.
		{ID: 2, Parent: 1, Name: "storage.append", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "storage.append", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "storage.append", StartNS: 90, EndNS: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Name: "storage.compact", StartNS: 25, EndNS: 35},
		{ID: 6, Name: "catalog.insert", StartNS: 200, EndNS: 210},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"catalog.insert":  {Name: "catalog.insert", Count: 2, TotalMS: 110e-6, SelfMS: 60e-6},
		"storage.append":  {Name: "storage.append", Count: 3, TotalMS: 80e-6, SelfMS: 70e-6},
		"storage.compact": {Name: "storage.compact", Count: 1, TotalMS: 10e-6, SelfMS: 10e-6},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || !near(g.TotalMS, w.TotalMS) || !near(g.SelfMS, w.SelfMS) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

// TestOpenLoopChargesStallFromDueTime injects a stall into one request
// of an open loop served by one connection: the requests queued behind
// it must be charged the wait from their due times, while the generator
// itself keeps the schedule.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const n, gap, stalled, stall = 20, 10 * time.Millisecond, 5, 150 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	waited := make([]time.Duration, n) // due → start of service
	late, latency, errs := runOpenLoop(context.Background(), due, 1, func(_ context.Context, i int, dueAt time.Time) error {
		waited[i] = time.Since(dueAt)
		if i == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if late[i] > 20*time.Millisecond {
			t.Errorf("generator released request %d %v late; a stall must not hold the schedule back", i, late[i])
		}
		if latency[i] < waited[i] {
			t.Errorf("request %d: latency %v is shorter than its wait for a connection %v", i, latency[i], waited[i])
		}
	}
	if latency[stalled] < stall {
		t.Errorf("stalled request: latency %v < stall %v", latency[stalled], stall)
	}
	// The next request was due one gap after the stalled one and could
	// only start when the stall ended.
	if min := stall - gap - 5*time.Millisecond; latency[stalled+1] < min {
		t.Errorf("request after the stall: latency %v, want at least %v charged from its due time", latency[stalled+1], min)
	}
	if latency[n-1] > 60*time.Millisecond {
		t.Errorf("last request: latency %v, the backlog should have drained", latency[n-1])
	}
}

func TestCorruptOutputIsCountedAsError(t *testing.T) {
	const head = `{"engine":"minesweeper","gao":["A","B"],"vars":["A","B"]}` + "\n"
	foot := func(n int) string {
		return `{"done":true,"limited":false,"stats":{},"timed_out":false,"tuples":` + strconv.Itoa(n) + "}\n"
	}
	good := head + "[1,2]\n[1,3]\n" + foot(2)
	want, err := renderReference([][]int{{1, 3}, {1, 2}}, []string{"A", "B"}, []string{"A", "B"}, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := readStream(strings.NewReader(good), time.Now())
	if err != nil || !want.matches(res) {
		t.Fatalf("intact stream: err %v, match %v", err, want.matches(res))
	}

	rec := &recorder{limitMS: 1000}
	for _, body := range []string{
		head + "[1,2]\n[1,x]\n" + foot(2),   // not a tuple
		head + "[1,2]\n[1,3,4]\n" + foot(2), // wrong arity
		head + "[1,2]\n[1,3]\n" + foot(3),   // footer disagrees
		head + "[1,2]\n[1,3]\n",             // no footer
	} {
		_, err := readStream(strings.NewReader(body), time.Now())
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%q: got %v, want a corrupt-response error", body, err)
		}
		rec.note("run", 1, err)
	}
	// Well formed but not the reference's answer.
	res, err = readStream(strings.NewReader(head+"[1,2]\n[1,4]\n"+foot(2)), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if want.matches(res) {
		t.Fatal("a changed tuple matched the reference")
	}
	rec.note("run", 1, errCorrupt)
	if rec.outcomes[wrong] != 5 || rec.errorCount() != 5 || rec.attempted != 5 || rec.within != 0 {
		t.Errorf("got %d wrong, %d errors of %d attempted, %d within the limit; want 5, 5, 5, 0",
			rec.outcomes[wrong], rec.errorCount(), rec.attempted, rec.within)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, err := findWorkload("mixed_rw")
	if err != nil {
		t.Fatal(err)
	}
	g := newGraph(1000, [][]int{{1, 0}, {2, 1}})
	draw := func() []openReq {
		rng := newRand(7)
		return makeSchedule(w.open, 5*time.Second, 10, rng, g, func() int { return rng.Intn(g.n) })
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	var writes int
	for _, r := range a {
		if r.kind == kindWrite {
			writes++
		}
	}
	if want := int(5 * w.open.rate); len(a) != want || writes != int(float64(want)*w.open.writeW+0.5) {
		t.Fatalf("schedule of %d requests with %d writes over 5 s at %v/s", len(a), writes, w.open.rate)
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json names exactly the
// gated workloads and the metrics the benchmark produces.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		if w.gated {
			ours = append(ours, w.name)
		}
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, ours)
	}

	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}, ungated: map[string]metric{}, details: map[string]any{}}
	b := &bench{w: workloads[0], rec: &recorder{limitMS: 1, attempted: 1}}
	res.endToEnd(b, []float64{1}, time.Second, []float64{0}, 1)
	if len(spec.EndToEnd) != len(res.Metrics) {
		t.Errorf("end_to_end: BENCHMARK.json lists %d metrics, a run reports %d", len(spec.EndToEnd), len(res.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end_to_end %s (%s): a run reports %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer: BENCHMARK.json lists %d metrics, the traced run %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s (%s), traced run %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
