// Command perfbench is the repository's end-to-end benchmark. It starts a
// real msserve binary, uploads seeded generated data as relio text,
// registers the workload's query, drives the server from this one
// process over at most two connections, and checks every answer against
// a reference computed here. The last line of standard output is one
// JSON object with the run's metrics.
//
// Usage (from the repository root, after perfbench/run.sh has built
// both binaries; run.sh takes the same flags):
//
//	perfbench --workload path_stream|triangle_count|mixed_rw|all --seed N --seconds S --trace 0|1
//
// BENCHMARK.json lists the gated workloads, path_stream and
// triangle_count; mixed_rw runs only by name (workload.go says why).
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports per-layer metrics, timing calls into each
// module's public functions from outside the program.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: path_stream, triangle_count, mixed_rw, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed of the generated data and the request schedule")
	seconds := flag.Float64("seconds", 10, "how long the measured phase lasts")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	bin := flag.String("msserve", ".bench_build/bin/msserve", "msserve binary")
	workdir := flag.String("workdir", ".bench_build", "directory for server data, logs and results")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	names := []string{*workloadName}
	if *workloadName == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	allCorrect := true
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			fatal(err)
		}
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, bin: *bin, traced: *traced == 1, workdir: *workdir,
			dir: filepath.Join(*workdir, "run", fmt.Sprintf("%s-seed%d-%d", w.name, *seed, os.Getpid()))}
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			fatal(err)
		}
		// A run must end well inside the three minutes it is allowed.
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+150*time.Second)
		res, err := cfg.run(ctx)
		cancel()
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if err := res.save(filepath.Join(*workdir, "results")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving results:", err)
		}
		os.RemoveAll(cfg.dir)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED: a served answer differed from its reference or the run was invalid")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runConfig is one invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	bin     string
	workdir string
	dir     string // this run's server data and logs, removed at the end
	traced  bool
	query   querySpec // the registered query, sized on the generated data
	k       int
}

// registration is the answer to POST /queries.
type registration struct {
	Explain struct {
		EstCost    float64  `json:"est_cost"`
		Partitions []string `json:"partitions"`
	} `json:"explain"`
}

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 21

// setup starts msserve and brings it to serving: process start, relation
// uploaded as relio text, query registered, /readyz answering 200. It
// returns the server and the time that took.
func (c *runConfig) setup(ctx context.Context, d *data, i int) (*server, registration, time.Duration, error) {
	var reg registration
	dataDir := ""
	if c.w.durable {
		dataDir = filepath.Join(c.dir, fmt.Sprintf("data-%d", i))
	}
	client := newClient(2)
	t0 := time.Now()
	s, err := startServer(c.bin, c.w.flags, dataDir, filepath.Join(c.dir, fmt.Sprintf("msserve-%d.log", i)), client)
	if err != nil {
		return nil, reg, 0, err
	}
	fail := func(err error) (*server, registration, time.Duration, error) {
		s.stop()
		return nil, reg, 0, err
	}
	if err := s.do(ctx, "POST", "/relations", "text/plain", d.relio, nil); err != nil {
		return fail(fmt.Errorf("uploading E: %w", err))
	}
	body, err := json.Marshal(c.query)
	if err != nil {
		return fail(err)
	}
	if err := s.do(ctx, "POST", "/queries", "application/json", body, &reg); err != nil {
		return fail(fmt.Errorf("registering %s: %w", c.query.Name, err))
	}
	if err := s.waitStatus("/readyz", 20*time.Second); err != nil {
		return fail(err)
	}
	took := time.Since(t0)
	if c.w.open != nil {
		// The selective read must scatter across the shards, not run
		// over the gathered whole.
		for _, p := range reg.Explain.Partitions {
			if p == "gathered" {
				return fail(fmt.Errorf("query %s runs gathered, not sharded: %v", c.query.Name, reg.Explain.Partitions))
			}
		}
		if len(reg.Explain.Partitions) == 0 {
			return fail(fmt.Errorf("query %s reports no partitions", c.query.Name))
		}
	}
	return s, reg, took, nil
}

func (c *runConfig) run(ctx context.Context) (*result, error) {
	d, err := generate(c.w.graph, c.seed)
	if err != nil {
		return nil, err
	}
	c.query, c.k = c.w.registered(d.g)
	res := newResult(c, d)
	if c.traced {
		return res, c.traceRun(ctx, d, res)
	}
	var setups []float64
	var s *server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		var took time.Duration
		if s, _, took, err = c.setup(ctx, d, i); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer s.stop()
	b := c.newBench(s, d, nil)
	lateMS, wall, err := b.measure(ctx, c.seconds)
	if err != nil {
		return nil, err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.endToEnd(b, setups, wall, lateMS, rss)
	return res, nil
}

func (c *runConfig) newBench(s *server, d *data, tr *tracer) *bench {
	return &bench{w: c.w, s: s, d: d, tr: tr, query: c.query, k: c.k,
		rng: newRand(c.seed),
		rec: &recorder{limitMS: c.w.limitMS}}
}

// newRand returns the benchmark's seeded source for a stream of choices
// (schedule, constants, fresh edges), distinct from the data's seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000003 + 17)) }

// measure runs the workload's loop for the given seconds and returns the
// generator lateness samples (open loop only) and the wall time over
// which the registered runs' throughput counts.
func (b *bench) measure(ctx context.Context, seconds float64) ([]float64, time.Duration, error) {
	if b.w.open != nil {
		return b.openLoop(ctx, seconds)
	}
	start := time.Now()
	// Warm-up: the first runs build indexes and compute the reference.
	for i := 0; i < 2; i++ {
		if _, _, err := b.runRegistered(ctx, time.Now(), b.baseRef); err != nil {
			return nil, 0, fmt.Errorf("warm-up run: %w", err)
		}
	}
	wall, err := b.closedLoop(ctx, start.Add(time.Duration(seconds*float64(time.Second))))
	return nil, wall, err
}
