package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"minesweeper/internal/dataset"
	"minesweeper/internal/relio"
)

// workload is one traffic mix the benchmark drives msserve with. The
// numbers here are the benchmark's fixed settings: changing any of them
// changes what the benchmark measures, so a change that claims a gain
// must leave this file alone.
type workload struct {
	name string
	// gated workloads are the ones BENCHMARK.json lists.
	gated bool
	graph graphSpec
	// flags are the msserve flags beyond -addr and -data-dir.
	flags   []string
	durable bool
	// query is the registered query the workload runs.
	query querySpec
	// limitMS is the latency limit behind within_limit_frac.
	limitMS float64
	// open is the open loop's traffic; without one the workload is a
	// closed loop with one client, each registered run sent when the
	// previous one has answered.
	open *openSpec
}

type graphSpec struct {
	n, outDeg int
	symmetric bool
}

// querySpec is the body of POST /queries.
type querySpec struct {
	Name    string `json:"name"`
	Query   string `json:"query"`
	Select  string `json:"select,omitempty"`
	Where   string `json:"where,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// openSpec is an open loop: requests are due on a seeded Poisson
// schedule at a fixed rate whatever the server does, sent over at most
// conns connections, and each is timed from its due time.
type openSpec struct {
	rate                  float64 // requests per second
	readW, adhocW, writeW float64 // request mix shares
	inserts               int     // per write group
	batch                 int     // tuples per insert
	conns                 int
	// The read is "where A < k" with the smallest k whose answer on the
	// generated data has at least readTuples tuples.
	readTuples  int
	lowSrcShare float64 // share of inserted edges whose source is below k
}

// The workloads. BENCHMARK.json records why each gated one was chosen
// and which modules it loads.
var workloads = []*workload{
	{
		// Emission-bound: ~66k tuples (~0.9 MB of NDJSON) per run of a
		// sequential path join; per-tuple encode and flush dominate.
		name:    "path_stream",
		gated:   true,
		graph:   graphSpec{n: 2000, outDeg: 6},
		query:   querySpec{Name: "path", Query: "E(A,B), E(B,C)"},
		limitMS: 2000,
	},
	{
		// Certificate-bound: ~600k FindGaps and ~5.7M CDS ops per run of
		// a parallel (workers 2) triangle count that emits one line. The
		// graph is sized for ~0.3 s runs, so a measured run holds ~150 of
		// them: at ~1 s a run (3000 vertices) too few runs averaged out
		// the machine's drift and their median spread by 15-25% between
		// runs of the same code.
		name:    "triangle_count",
		gated:   true,
		graph:   graphSpec{n: 1500, outDeg: 8, symmetric: true},
		query:   querySpec{Name: "tri", Query: "E(A,B), E(B,C), E(A,C)", Select: "count(*)", Workers: 2},
		limitMS: 5000,
	},
	{
		// Write-mixed and cold: durable, 2 shards x 2 replicas, no
		// per-mutation fsync; every write drops the cached indexes and
		// stats, so the next read re-plans and rebuilds.
		//
		// Not gated. Its timings are milliseconds that queue behind
		// ~100 ms rebuilds, so their medians sit where the latency
		// distribution climbs steeply: two sets of ten runs of the same
		// code spread by 30-77% of the median, past any bound the gate
		// allows. And it fails runs on a defect of the program: a
		// scatter-gather read concurrent with a write can join the
		// sliced atom's fragments at one version of E with the gathered
		// view at another (a torn read), which the check reports as a
		// wrong answer. Run it by name to measure the write path or to
		// look for that defect.
		name:    "mixed_rw",
		graph:   graphSpec{n: 20000, outDeg: 5},
		flags:   []string{"-shards", "2", "-replicas", "2"},
		durable: true,
		query:   querySpec{Name: "sel", Query: "E(A,B), E(B,C)"}, // where A < k, k from readTuples
		limitMS: 250,
		// At 24 requests/s the two connections are busy ~15% of the time,
		// and a run holds enough of each kind for its median and tail.
		// Writes are 10% of requests: each makes the next read (~80 ms
		// cold against ~5 ms warm) a read after write, and at this share
		// those stay ~11% of reads, well clear of the read median. Four
		// inserts per delete keep the O(|E|) deletes, and the requests
		// queued behind them, clear of the write median, while the ~14
		// deletes of a run put the write tail among them.
		open: &openSpec{
			rate: 24, readW: 0.6, adhocW: 0.3, writeW: 0.1, inserts: 4, batch: 3, conns: 2,
			readTuples: 450, lowSrcShare: 0.3,
		},
	},
}

// registered returns the query a run registers: the workload's, with
// the open loop's selective filter sized on the generated data. k is
// the filter's bound (0 without one).
func (w *workload) registered(g *graph) (q querySpec, k int) {
	q = w.query
	if w.open == nil {
		return q, 0
	}
	n := 0
	for k < g.n && n < w.open.readTuples {
		for b := range g.out[k] {
			n += len(g.out[b])
		}
		k++
	}
	q.Where = fmt.Sprintf("A < %d", k)
	return q, k
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// adhocQuery is the open loop's ad-hoc query, POST /query with one
// constant vertex v: the number of 3-paths from v.
func adhocQuery(v int) string {
	return fmt.Sprintf(`{"query":"E(%d,B), E(B,C), E(C,D)","select":"count(*)"}`, v)
}

// graph is the benchmark's own copy of relation E: the generated edges
// and an adjacency index kept in step with every write the benchmark
// sends, used for the nested-loop reference answers.
type graph struct {
	n   int
	out map[int]map[int]bool
}

func newGraph(n int, edges [][]int) *graph {
	g := &graph{n: n, out: map[int]map[int]bool{}}
	for _, e := range edges {
		g.add(e[0], e[1])
	}
	return g
}

func (g *graph) has(u, v int) bool { return g.out[u][v] }

func (g *graph) add(u, v int) {
	m := g.out[u]
	if m == nil {
		m = map[int]bool{}
		g.out[u] = m
	}
	m[v] = true
}

func (g *graph) remove(u, v int) { delete(g.out[u], v) }

func (g *graph) apply(w *writeOp) {
	for _, t := range w.tuples {
		if w.insert {
			g.add(t[0], t[1])
		} else {
			g.remove(t[0], t[1])
		}
	}
}

// succ returns u's out-neighbours in ascending order.
func (g *graph) succ(u int) []int {
	vs := make([]int, 0, len(g.out[u]))
	for v := range g.out[u] {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// threePathCount counts the paths v→B→C→D by nested loops.
func threePathCount(g *graph, v int) int {
	n := 0
	for b := range g.out[v] {
		for c := range g.out[b] {
			n += len(g.out[c])
		}
	}
	return n
}

// pathsFrom lists the tuples (A, B, C) of E(A,B), E(B,C) with A < k in
// lexicographic order.
func pathsFrom(g *graph, k int) [][]int {
	var out [][]int
	for a := 0; a < k; a++ {
		for _, b := range g.succ(a) {
			for _, c := range g.succ(b) {
				out = append(out, []int{a, b, c})
			}
		}
	}
	return out
}

// writeGroup is the writes the open loop sends: inserts batches of fresh
// edges, then one delete of all of them, which restores the data.
// Deletes cost O(|E|) against a few tuples' work for an insert; several
// inserts per delete keep the write median among inserts and the write
// tail among deletes, instead of a median that flips between the two.
func writeGroup(rng *rand.Rand, g *graph, inserts, batch int, lowSrc float64, lowK int) []*writeOp {
	all := freshEdges(rng, g, inserts*batch, lowSrc, lowK)
	var group []*writeOp
	for i := 0; i < inserts; i++ {
		group = append(group, &writeOp{insert: true, tuples: all[i*batch : (i+1)*batch]})
	}
	return append(group, &writeOp{insert: false, tuples: all})
}

// writeOp is one insert or delete batch.
type writeOp struct {
	insert bool
	tuples [][]int
}

func (w *writeOp) op() string {
	if w.insert {
		return "insert"
	}
	return "delete"
}

// freshEdges draws k distinct edges absent from g (and from each
// other); with probability lowSrc an edge's source is below lowK, where
// it changes the selective read's answer.
func freshEdges(rng *rand.Rand, g *graph, k int, lowSrc float64, lowK int) [][]int {
	seen := map[[2]int]bool{}
	var out [][]int
	for len(out) < k {
		u := rng.Intn(g.n)
		if lowK > 0 && rng.Float64() < lowSrc {
			u = rng.Intn(lowK)
		}
		v := rng.Intn(g.n)
		if u == v || g.has(u, v) || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, []int{u, v})
	}
	return out
}

// data is a workload's generated input.
type data struct {
	edges [][]int
	relio []byte // relation E in relio text, as uploaded
	g     *graph
}

func generate(spec graphSpec, seed int64) (*data, error) {
	pg := dataset.PowerLawGraph(spec.n, spec.outDeg, spec.symmetric, seed)
	var buf bytes.Buffer
	if err := relio.WriteRelation(&buf, &relio.Relation{Name: "E", Vars: []string{"src", "dst"}, Tuples: pg.Edges}); err != nil {
		return nil, err
	}
	return &data{edges: pg.Edges, relio: buf.Bytes(), g: newGraph(spec.n, pg.Edges)}, nil
}
