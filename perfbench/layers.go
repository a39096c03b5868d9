package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"minesweeper"
	"minesweeper/internal/shard"
	"minesweeper/internal/storage"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric (and workload) it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics lists the traced run's metrics in print order; the
// per_layer list of BENCHMARK.json names the same ones.
var layerMetrics = []layerMetric{
	{"msserve.serve_overhead_ms", "ms", "run_p50_ms, tuples_per_s on path_stream"},
	{"msserve.allocs_per_run", "count", "run_p50_ms on path_stream"},
	{"msserve.bytes_per_tuple", "B", "tuples_per_s on path_stream"},
	{"msserve.first_byte_ms", "ms", "first_tuple_p50_ms (not gated) on path_stream"},
	{"minesweeper.parse_ms", "ms", "setup_s; adhoc_p50_ms (not gated) on mixed_rw"},
	{"minesweeper.prepare_ms", "ms", "setup_s; adhoc_p50_ms (not gated) on mixed_rw"},
	{"minesweeper.refresh_ms", "ms", "read_after_write_p50_ms (not gated) on mixed_rw"},
	{"minesweeper.shape_ms", "ms", "run_p50_ms on path_stream, triangle_count"},
	{"planner.colstats_ms", "ms", "read_after_write_p50_ms (not gated) on mixed_rw"},
	{"planner.est_cost_ratio", "ratio", "(EXPLAIN ANALYZE: model units per FindGap)"},
	{"reltree.index_build_ms", "ms", "setup_s; read_after_write_p50_ms (not gated) on mixed_rw"},
	{"reltree.findgaps_per_run", "count", "run_p50_ms, tuples_per_s on triangle_count"},
	{"core.probe_ms", "ms", "run_p50_ms on triangle_count, path_stream"},
	{"core.probe_points_per_run", "count", "run_p50_ms on triangle_count"},
	{"core.backtracks_per_run", "count", "run_p50_ms on triangle_count"},
	{"core.findgaps_per_output", "ratio", "run_p50_ms on triangle_count"},
	{"core.parallel_speedup", "ratio", "run_p50_ms, peak_rss_mb on triangle_count"},
	{"cds.ops_per_run", "count", "run_p50_ms on triangle_count"},
	{"cds.constraints_per_run", "count", "run_p50_ms on triangle_count"},
	{"cds.box_skips_per_run", "count", "run_p50_ms on triangle_count"},
	{"catalog.load_ms", "ms", "setup_s"},
	{"catalog.insert_ms", "ms", "write_p50_ms (not gated) on mixed_rw"},
	{"catalog.delete_ms", "ms", "write_tail_ms (not gated) on mixed_rw"},
	{"storage.append_ms", "ms", "write_p50_ms (not gated) on mixed_rw"},
	{"storage.wal_bytes_per_write", "B", "write_p50_ms (not gated) on mixed_rw"},
	{"storage.compact_ms", "ms", "write_tail_ms (not gated) on mixed_rw"},
	{"storage.compactions", "count", "write_tail_ms (not gated) on mixed_rw"},
	{"shard.appends_per_write", "count", "write_p50_ms (not gated) on mixed_rw; expect replicas x shards a batch touches"},
	{"shard.merge_overhead_ms", "ms", "run_p50_ms on a sharded server (mixed_rw, not gated)"},
	{"shard.substream_retries", "count", "error_frac (not gated; expect 0)"},
	{"shard.failovers", "count", "error_frac (not gated; expect 0)"},
	{"loadgen.late_tail_ms", "ms", "validity of an open loop (mixed_rw; 0 on closed loops)"},
	{"trace.overhead_frac", "frac", "(traced minus untraced run_p50_ms)"},
}

// traceRun is the separate traced run: the workload again, half of it
// untraced and half traced, then the served query timed against its
// in-process equivalents and each layer's public calls timed from
// outside the program. Only per-layer metrics come out of it.
func (c *runConfig) traceRun(ctx context.Context, d *data, res *result) error {
	tr := newTracer()
	s, reg, _, err := c.setup(ctx, d, 0)
	if err != nil {
		return err
	}
	defer s.stop()

	half := c.seconds / 2
	untraced := c.newBench(s, d, nil)
	lateMS, _, err := untraced.measure(ctx, half)
	if err != nil {
		return err
	}
	traced := c.newBench(s, d, tr)
	traced.rng = newRand(c.seed + 29)
	if _, _, err := traced.measure(ctx, half); err != nil {
		return err
	}
	res.Attempted = untraced.rec.attempted + traced.rec.attempted
	res.Failed = untraced.rec.errorCount() + traced.rec.errorCount()
	res.Correct = untraced.rec.outcomes[wrong]+traced.rec.outcomes[wrong] == 0

	late := 0.0
	if lateMS != nil {
		late = tailPercentile(lateMS).Value
	}
	res.set("loadgen.late_tail_ms", late, "ms", "")
	res.set("trace.overhead_frac", median(traced.rec.run)/median(untraced.rec.run)-1, "frac", "")

	served, err := traced.servedSection(ctx, res)
	if err != nil {
		return err
	}
	l := &layerRun{c: c, tr: tr, req: tr.request(), res: res}
	if err := l.inProcess(ctx, s, served); err != nil {
		return err
	}
	st, err := s.stats(ctx)
	if err != nil {
		return err
	}
	res.set("shard.substream_retries", float64(st.Health.SubstreamRetries), "count", "")
	res.set("shard.failovers", float64(st.Health.Failovers), "count", "")
	res.set("planner.est_cost_ratio", reg.Explain.EstCost/float64(max(1, served.footer.FindGaps)), "ratio", "")
	res.order = res.order[:0]
	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			return fmt.Errorf("traced run did not measure %s", m.name)
		}
		res.order = append(res.order, m.name)
		res.notes[m.name] = "-> " + m.moves
	}
	spans := tr.snapshot()
	res.details["layers"] = selfTimes(spans)
	return saveSpans(filepath.Join(c.workdir, "results"), c, spans)
}

// servedRuns is what the traced run measured of the served query.
type servedRuns struct {
	p50MS  float64
	footer minesweeper.Stats
}

// servedReps is how many registered runs the served section times.
const servedReps = 7

// servedSection times registered runs back to back with the server's
// allocation counters read before and after.
func (b *bench) servedSection(ctx context.Context, res *result) (servedRuns, error) {
	before, err := b.s.stats(ctx)
	if err != nil {
		return servedRuns{}, err
	}
	var done, first []float64
	var bytes, tuples int64
	var last *streamResult
	for i := 0; i < servedReps; i++ {
		r, lat, err := b.runRegistered(ctx, time.Now(), b.currentRef())
		if err != nil {
			return servedRuns{}, fmt.Errorf("served run: %w", err)
		}
		done = append(done, ms(lat))
		first = append(first, ms(r.FirstByte))
		bytes += r.Bytes
		tuples += int64(r.Tuples)
		last = r
	}
	after, err := b.s.stats(ctx)
	if err != nil {
		return servedRuns{}, err
	}
	runs := float64(after.Executions - before.Executions)
	res.set("msserve.allocs_per_run", float64(after.AllocObjects-before.AllocObjects)/runs, "count", "")
	res.set("msserve.bytes_per_tuple", float64(bytes)/float64(max(1, tuples)), "B", "")
	res.set("msserve.first_byte_ms", median(first), "ms", "")
	f := last.Footer.Stats
	res.set("reltree.findgaps_per_run", float64(f.FindGaps), "count", "")
	res.set("core.probe_points_per_run", float64(f.ProbePoints), "count", "")
	res.set("core.backtracks_per_run", float64(f.Backtracks), "count", "")
	res.set("core.findgaps_per_output", float64(f.FindGaps)/float64(max(1, f.Outputs)), "ratio", "")
	res.set("cds.ops_per_run", float64(f.CDSOps), "count", "")
	res.set("cds.constraints_per_run", float64(f.Constraints), "count", "")
	res.set("cds.box_skips_per_run", float64(f.BoxSkips), "count", "")
	return servedRuns{p50MS: median(done), footer: f}, nil
}

// currentRef is the reference for the registered run on the data the
// server holds now.
func (b *bench) currentRef() func(*streamResult) (reference, error) {
	if b.w.open != nil {
		return b.pathsRef(b.d.g)
	}
	return b.baseRef
}

// layerRun times the modules' public calls in process.
type layerRun struct {
	c   *runConfig
	tr  *tracer
	req int64
	res *result
}

// repeat calls fn at least minReps times and until half a second has
// passed (at most 50 times), returning each call's milliseconds.
func repeat(minReps int, fn func() float64) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || (time.Since(start) < 500*time.Millisecond && len(out) < 50) {
		out = append(out, fn())
	}
	return out
}

// The in-process section opens mixed_rw's layout, durable with
// layerShards x layerReplicas, whatever the workload: every traced run
// then measures the catalog, storage and shard layers on its own data.
const layerShards, layerReplicas = 2, 2

// inProcess opens the durable sharded layout through shard.OpenWith
// with a timing wrapper over every replica's storage.Backend, loads the
// relation as the server holds it now, and times each layer's calls on
// the workload's query.
func (l *layerRun) inProcess(ctx context.Context, s *server, served servedRuns) error {
	dump, err := s.dump(ctx, "E")
	if err != nil {
		return err
	}
	probe := &storageProbe{tr: l.tr}

	// catalog.load: a fresh layout per repetition.
	var cat *shard.Catalog
	var loads []float64
	for i := 0; i < 3; i++ {
		if cat != nil {
			cat.Close()
		}
		dir := filepath.Join(l.c.dir, fmt.Sprintf("layers-%d", i))
		if cat, err = openLayout(dir, layerShards, layerReplicas, probe); err != nil {
			return err
		}
		sp := l.tr.start("catalog.load", l.req, 0)
		probe.setParent(l.req, sp.id())
		t0 := time.Now()
		_, err := cat.Load(bytes.NewReader(dump), "E")
		loads = append(loads, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return fmt.Errorf("loading E in process: %w", err)
		}
	}
	defer cat.Close()
	l.res.set("catalog.load_ms", median(loads), "ms", "")

	var q *minesweeper.Query
	parse := repeat(20, func() float64 {
		return l.tr.timed("minesweeper.parse", l.req, 0, func() { q, err = cat.Query(l.c.query.Query) })
	})
	if err != nil {
		return err
	}
	l.res.set("minesweeper.parse_ms", median(parse), "ms", "")
	opts, err := l.c.query.options()
	if err != nil {
		return err
	}
	var pq *minesweeper.PreparedQuery
	prepare := func() float64 {
		return l.tr.timed("minesweeper.prepare", l.req, 0, func() { pq, err = q.Prepare(&opts) })
	}
	prepare() // the first builds the indexes; later ones find them cached, as an ad-hoc query does
	if err != nil {
		return err
	}
	l.res.set("minesweeper.prepare_ms", median(repeat(5, prepare)), "ms", "")
	if err != nil {
		return err
	}

	// The same query through each execution path, in rounds so that a
	// slow stretch of the machine hits every path alike: shaped and raw
	// (the shaping cost), the probe loop sequential and with two workers,
	// and scatter-gather over the shards (against the gathered view, and
	// as the server runs it).
	paths := []struct {
		name string
		opts minesweeper.Options
		run  func(pq *minesweeper.PreparedQuery, yield func([]int) bool) (minesweeper.Stats, error)
	}{
		{"minesweeper.stream", opts, func(pq *minesweeper.PreparedQuery, y func([]int) bool) (minesweeper.Stats, error) {
			return pq.StreamContext(ctx, y)
		}},
		{"core.probe", opts, func(pq *minesweeper.PreparedQuery, y func([]int) bool) (minesweeper.Stats, error) {
			return pq.StreamRawContext(ctx, nil, y)
		}},
		{"core.probe.workers0", withWorkers(opts, 0), func(pq *minesweeper.PreparedQuery, y func([]int) bool) (minesweeper.Stats, error) {
			return pq.StreamRawContext(ctx, nil, y)
		}},
		{"core.probe.workers2", withWorkers(opts, 2), func(pq *minesweeper.PreparedQuery, y func([]int) bool) (minesweeper.Stats, error) {
			return pq.StreamRawContext(ctx, nil, y)
		}},
	}
	prepared := make([]*minesweeper.PreparedQuery, len(paths))
	for i, p := range paths {
		if prepared[i], err = q.Prepare(&p.opts); err != nil {
			return err
		}
	}
	sp, err := cat.Prepare(q, &opts)
	if err != nil {
		return err
	}
	discard := func([]int) bool { return true }
	var runErr error
	timed := func(name string, run func() (minesweeper.Stats, error)) float64 {
		return l.tr.timed(name, l.req, 0, func() {
			if _, err := run(); err != nil && runErr == nil {
				runErr = err
			}
		})
	}
	samples := map[string][]float64{}
	for round, start := 0, time.Now(); round < 3 || (round < 50 && time.Since(start) < 500*time.Millisecond); round++ {
		for i, p := range paths {
			pq := prepared[i]
			samples[p.name] = append(samples[p.name], timed(p.name, func() (minesweeper.Stats, error) { return p.run(pq, discard) }))
		}
		samples["shard.stream"] = append(samples["shard.stream"], timed("shard.stream", func() (minesweeper.Stats, error) {
			return sp.StreamContextExplained(ctx, nil, discard)
		}))
	}
	full, raw, sharded := median(samples["minesweeper.stream"]), median(samples["core.probe"]), median(samples["shard.stream"])
	l.res.set("minesweeper.shape_ms", full-raw, "ms", "")
	l.res.set("core.probe_ms", raw, "ms", "")
	l.res.set("core.parallel_speedup", median(samples["core.probe.workers0"])/median(samples["core.probe.workers2"]), "ratio", "")
	l.res.set("shard.merge_overhead_ms", sharded-full, "ms", "")
	// The server's own way to run the query: scatter-gather when it
	// shards E, the gathered view when it does not.
	inProc := full
	if shards, _ := l.c.w.layout(); shards > 1 {
		inProc = sharded
	}
	l.res.set("msserve.serve_overhead_ms", served.p50MS-inProc, "ms", "")
	if runErr != nil {
		return runErr
	}
	return l.writes(cat, pq, probe)
}

// writeCycles is how many insert/delete pairs the traced run times in
// process.
const writeCycles = 10

// writes times inserts and deletes through the sharded catalog, and
// after each what the next read pays: a prepared query's Refresh on odd
// writes, the relation's statistics and index rebuild on even ones.
func (l *layerRun) writes(cat *shard.Catalog, pq *minesweeper.PreparedQuery, probe *storageProbe) error {
	w := l.c.w
	rel, ok := cat.Get("E")
	if !ok {
		return fmt.Errorf("relation E missing in process")
	}
	g := newGraph(w.graph.n, rel.Tuples())
	rng := newRand(l.c.seed + 101)
	var inserts, deletes, refresh, colstats, indexes []float64
	probe.reset()
	var err error
	mutate := func(name string, fn func() error) float64 {
		sp := l.tr.start(name, l.req, 0)
		probe.setParent(l.req, sp.id())
		t0 := time.Now()
		if e := fn(); e != nil && err == nil {
			err = e
		}
		d := ms(time.Since(t0))
		sp.end()
		return d
	}
	after := func(i int) {
		if i%2 == 1 {
			refresh = append(refresh, l.tr.timed("minesweeper.refresh", l.req, 0, func() {
				if e := pq.Refresh(); e != nil && err == nil {
					err = e
				}
			}))
			return
		}
		colstats = append(colstats, l.tr.timed("planner.colstats", l.req, 0, func() { rel.ColStats() }))
		indexes = append(indexes, l.tr.timed("reltree.index_build", l.req, 0, func() {
			if _, _, e := rel.IndexesFor([][]int{{0, 1}, {1, 0}}); e != nil && err == nil {
				err = e
			}
		}))
	}
	for i := 0; i < writeCycles; i++ {
		batch := freshEdges(rng, g, 3, 0, 0)
		inserts = append(inserts, mutate("catalog.insert", func() error { _, e := cat.Insert("E", batch...); return e }))
		after(2 * i)
		deletes = append(deletes, mutate("catalog.delete", func() error { _, _, e := cat.Delete("E", batch...); return e }))
		after(2*i + 1)
	}
	if err != nil {
		return fmt.Errorf("in-process writes: %w", err)
	}
	writes := float64(2 * writeCycles)
	p := probe.snapshot()
	l.res.set("catalog.insert_ms", median(inserts), "ms", "")
	l.res.set("catalog.delete_ms", median(deletes), "ms", "")
	l.res.set("minesweeper.refresh_ms", median(refresh), "ms", "")
	l.res.set("planner.colstats_ms", median(colstats), "ms", "")
	l.res.set("reltree.index_build_ms", median(indexes), "ms", "")
	l.res.set("storage.append_ms", median(p.appends), "ms", "")
	l.res.set("storage.wal_bytes_per_write", float64(p.walBytes)/writes, "B", "")
	compact := 0.0
	if len(p.compacts) > 0 {
		compact = median(p.compacts)
	}
	l.res.set("storage.compact_ms", compact, "ms", "")
	l.res.set("storage.compactions", float64(len(p.compacts)), "count", "")
	l.res.set("shard.appends_per_write", float64(len(p.appends))/writes, "count", "")
	return nil
}

func withWorkers(o minesweeper.Options, workers int) minesweeper.Options {
	o.Workers = workers
	return o
}

// layout is the workload's shard and replica counts, from its msserve
// flags.
func (w *workload) layout() (shards, replicas int) {
	shards, replicas = 1, 1
	for i := 0; i+1 < len(w.flags); i++ {
		n, err := strconv.Atoi(w.flags[i+1])
		if err != nil {
			continue
		}
		switch w.flags[i] {
		case "-shards":
			shards = n
		case "-replicas":
			replicas = n
		}
	}
	return shards, replicas
}

// options renders the registered query's options as msserve builds
// them.
func (q querySpec) options() (minesweeper.Options, error) {
	opts := minesweeper.Options{Workers: q.Workers}
	var err error
	if q.Select != "" {
		if opts.Select, opts.Aggregates, err = minesweeper.ParseSelect(q.Select); err != nil {
			return opts, err
		}
	}
	if q.Where != "" {
		opts.Where, err = minesweeper.ParseWhere(q.Where)
	}
	return opts, err
}

// openLayout opens a sharded catalog over fresh durable storage in dir,
// WAL directories laid out like msserve -data-dir.
func openLayout(dir string, shards, replicas int, probe *storageProbe) (*shard.Catalog, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := storage.Options{}
	return shard.OpenWith(dir, shards, replicas, opts, func(i, j int) (storage.Backend, error) {
		d, err := storage.OpenDurable(shard.ReplicaDir(dir, i, j), opts)
		if err != nil {
			return nil, err
		}
		return &timedBackend{Backend: d, probe: probe}, nil
	})
}

// storageProbe collects the timings of every replica's backend.
type storageProbe struct {
	tr          *tracer
	req, parent atomic.Int64

	mu       sync.Mutex
	appends  []float64
	compacts []float64
	walBytes int64
}

func (p *storageProbe) setParent(req, parent int64) {
	p.req.Store(req)
	p.parent.Store(parent)
}

func (p *storageProbe) reset() {
	p.mu.Lock()
	p.appends, p.compacts, p.walBytes = nil, nil, 0
	p.mu.Unlock()
}

type probeSnapshot struct {
	appends, compacts []float64
	walBytes          int64
}

func (p *storageProbe) snapshot() probeSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeSnapshot{append([]float64(nil), p.appends...), append([]float64(nil), p.compacts...), p.walBytes}
}

// timedBackend times Append and Compact of the backend it wraps, as
// child spans of the catalog call in progress.
type timedBackend struct {
	storage.Backend
	probe *storageProbe
}

func (b *timedBackend) Append(rec *storage.Record) error {
	p := b.probe
	before := b.Backend.Stats().WALBytes
	sp := p.tr.start("storage.append", p.req.Load(), p.parent.Load())
	t0 := time.Now()
	err := b.Backend.Append(rec)
	d := ms(time.Since(t0))
	sp.end()
	grew := b.Backend.Stats().WALBytes - before
	p.mu.Lock()
	p.appends = append(p.appends, d)
	if grew > 0 {
		p.walBytes += grew
	}
	p.mu.Unlock()
	return err
}

func (b *timedBackend) Compact(st *storage.State) error {
	p := b.probe
	sp := p.tr.start("storage.compact", p.req.Load(), p.parent.Load())
	t0 := time.Now()
	err := b.Backend.Compact(st)
	d := ms(time.Since(t0))
	sp.end()
	p.mu.Lock()
	p.compacts = append(p.compacts, d)
	p.mu.Unlock()
	return err
}

// dump fetches a relation in relio text, as the server holds it now.
func (s *server) dump(ctx context.Context, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/relations/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dumping %s: HTTP %d", name, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// saveSpans writes the traced run's spans and self times under dir.
func saveSpans(dir string, c *runConfig, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", c.w.name, c.seed)))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
