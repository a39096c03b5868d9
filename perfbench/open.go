package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds of the open loop.
const (
	kindRead = iota
	kindAdhoc
	kindWrite
)

var kindNames = [...]string{"read", "adhoc", "write"}

// openReq is one scheduled request.
type openReq struct {
	due   time.Duration // since the start of the loop
	kind  int
	v     int      // the ad-hoc query's constant
	write *writeOp // kindWrite: the batch; writes apply in schedule order
}

// makeSchedule draws the seeded request schedule over the given span:
// rate×span requests, due at sorted uniform random times (a Poisson
// process conditioned on its count, so every run sends the same number),
// with the mix's exact share of each kind in shuffled order. The writes
// are write groups in turn (a lowSrcShare of the fresh edges with a
// source below k), so every insert meets the generated data and every
// delete removes tuples that exist.
func makeSchedule(o *openSpec, span time.Duration, k int, rng *rand.Rand, g *graph, adhocV func() int) []openReq {
	n := int(o.rate*span.Seconds() + 0.5)
	reqs := make([]openReq, n)
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * float64(span)
	}
	sort.Float64s(due)
	reads, writes := int(float64(n)*o.readW+0.5), int(float64(n)*o.writeW+0.5)
	for i := range reqs {
		reqs[i].due = time.Duration(due[i])
		switch {
		case i < reads:
			reqs[i].kind = kindRead
		case i < reads+writes:
			reqs[i].kind = kindWrite
		default:
			reqs[i].kind = kindAdhoc
		}
	}
	rng.Shuffle(n, func(i, j int) { reqs[i].kind, reqs[j].kind = reqs[j].kind, reqs[i].kind })
	var group []*writeOp
	for i := range reqs {
		switch reqs[i].kind {
		case kindAdhoc:
			reqs[i].v = adhocV()
		case kindWrite:
			if len(group) == 0 {
				group = writeGroup(rng, g, o.inserts, o.batch, o.lowSrcShare, k)
			}
			reqs[i].write, group = group[0], group[1:]
		}
	}
	return reqs
}

// runOpenLoop sends request i at start+due[i] whatever happened to the
// earlier ones: a generator goroutine releases each request at its due
// time into a FIFO queue served by conns workers, so a slow answer
// delays the requests queued behind it instead of the schedule. It
// returns, per request, how late the generator released it and its
// latency counted from its due time — the wait a stall imposes on later
// requests is part of their latency.
func runOpenLoop(ctx context.Context, due []time.Duration, conns int, do func(ctx context.Context, i int, dueAt time.Time) error) (late, latency []time.Duration, errs []error) {
	n := len(due)
	late, latency, errs = make([]time.Duration, n), make([]time.Duration, n), make([]error, n)
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				dueAt := start.Add(due[i])
				errs[i] = do(ctx, i, dueAt)
				latency[i] = time.Since(dueAt)
			}
		}()
	}
	for i := 0; i < n; i++ {
		dueAt := start.Add(due[i])
		if d := time.Until(dueAt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		late[i] = max(0, time.Since(dueAt))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return late, latency, errs
}

// openAnswer is what one read or ad-hoc query of the open loop returned,
// kept for the check after the loop: the writes that had certainly been
// applied when it was sent (lo) and those that might have been by the
// time it answered (hi) bound the states it may reflect.
type openAnswer struct {
	res        *streamResult
	lo, hi     int64
	afterWrite bool          // the first read to see a write
	sentLate   time.Duration // sent this long after its due time
}

// openLoop runs the open-loop workload and records its samples. It
// returns the generator's lateness samples and the loop's wall time.
func (b *bench) openLoop(ctx context.Context, seconds float64) ([]float64, time.Duration, error) {
	o := b.w.open
	// Warm-up: answers checked, times not kept.
	base := b.d.g
	for i := 0; i < 3; i++ {
		if _, _, err := b.runRegistered(ctx, time.Now(), b.pathsRef(base)); err != nil {
			return nil, 0, fmt.Errorf("warm-up run: %w", err)
		}
		v := b.adhocVertex()
		if _, err := b.adhocOnce(ctx, v, countReference(threePathCount(base, v))); err != nil {
			return nil, 0, fmt.Errorf("warm-up ad-hoc query: %w", err)
		}
	}

	reqs := makeSchedule(o, time.Duration(seconds*float64(time.Second)), b.k, b.rng, base, b.adhocVertex)
	due := make([]time.Duration, len(reqs))
	var writes []*writeOp
	writeIdx := make([]int, len(reqs))
	for i, r := range reqs {
		due[i] = r.due
		if r.kind == kindWrite {
			writeIdx[i] = len(writes)
			writes = append(writes, r.write)
		}
	}
	// Each write waits for its predecessor, so the server applies them
	// in schedule order, the order the reference replays them in.
	done := make([]chan struct{}, len(writes))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var started, acked atomic.Int64
	var readMu sync.Mutex
	var lastReadAck int64
	answers := make([]openAnswer, len(reqs))

	loopStart := time.Now()
	late, latency, errs := runOpenLoop(ctx, due, o.conns, func(ctx context.Context, i int, dueAt time.Time) error {
		r := reqs[i]
		a := &answers[i]
		a.sentLate = time.Since(dueAt)
		sp := b.tr.start("msserve."+kindNames[r.kind], b.tr.request(), 0)
		defer sp.end()
		switch r.kind {
		case kindWrite:
			j := writeIdx[i]
			if j > 0 {
				<-done[j-1]
			}
			defer close(done[j])
			started.Add(1)
			defer acked.Add(1)
			return b.write(ctx, r.write)
		case kindRead:
			readMu.Lock()
			a.lo = acked.Load()
			a.afterWrite = a.lo > lastReadAck
			lastReadAck = a.lo
			readMu.Unlock()
			res, err := b.s.stream(ctx, http.MethodGet, "/queries/"+b.query.Name+"/run", nil)
			a.res, a.hi = res, started.Load()
			if err == nil {
				sp.child("msserve.first_byte", res.FirstByte)
			}
			return err
		default:
			a.lo = acked.Load()
			res, err := b.s.stream(ctx, http.MethodPost, "/query", []byte(adhocQuery(r.v)))
			a.res, a.hi = res, started.Load()
			return err
		}
	})
	wall := time.Since(loopStart)

	if err := b.checkOpen(reqs, writes, answers, errs); err != nil {
		return nil, 0, err
	}
	lateMS := make([]float64, len(late))
	for i, r := range reqs {
		lateMS[i] = ms(late[i])
		lat := ms(latency[i])
		if b.rec.note(kindNames[r.kind], lat, errs[i]) != ok {
			continue
		}
		switch r.kind {
		case kindRead:
			a := answers[i]
			b.rec.addRun(latency[i], a.sentLate+a.res.FirstTuple, a.sentLate+a.res.FirstByte, a.res.Tuples, a.res.Bytes)
			if a.afterWrite {
				b.rec.add(&b.rec.raw, lat)
			}
		case kindAdhoc:
			b.rec.add(&b.rec.adhoc, lat)
		case kindWrite:
			b.rec.add(&b.rec.write, lat)
		}
	}
	return lateMS, wall, nil
}

// adhocOnce sends one ad-hoc query for vertex v and checks its count
// against want.
func (b *bench) adhocOnce(ctx context.Context, v int, want reference) (*streamResult, error) {
	res, err := b.s.stream(ctx, http.MethodPost, "/query", []byte(adhocQuery(v)))
	if err != nil {
		return nil, err
	}
	if !want.matches(res) {
		return res, fmt.Errorf("%w: ad-hoc count at %d gave %v, nested loop says %d", errCorrupt, v, res.First, want.value)
	}
	return res, nil
}

func (b *bench) adhocVertex() int { return b.rng.Intn(b.d.g.n) }

// write sends one insert or delete batch and checks the server applied
// all of it.
func (b *bench) write(ctx context.Context, w *writeOp) error {
	m, err := b.s.mutate(ctx, "E", w.op(), w.tuples)
	if err != nil {
		return err
	}
	n := m.Inserted
	if !w.insert {
		n = m.Deleted
	}
	if n != len(w.tuples) {
		return fmt.Errorf("%w: %s of %d tuples applied %d", errCorrupt, w.op(), len(w.tuples), n)
	}
	return nil
}

// pathsRef is the reference for the selective read over graph g.
func (b *bench) pathsRef(g *graph) func(*streamResult) (reference, error) {
	return func(res *streamResult) (reference, error) {
		return renderReference(pathsFrom(g, b.k), []string{"A", "B", "C"}, res.Vars, res.GAO)
	}
}

// checkOpen checks every answer of the open loop against nested-loop
// evaluation over the benchmark's copy of E, replaying the writes in
// order: an answer is correct when it equals the reference of some
// state between the writes applied before it was sent and those sent
// before it answered. A mismatch becomes the request's error.
func (b *bench) checkOpen(reqs []openReq, writes []*writeOp, answers []openAnswer, errs []error) error {
	g := b.d.g
	matched := make([]bool, len(reqs))
	for s := int64(0); s <= int64(len(writes)); s++ {
		readRefs := map[string]reference{} // by served column and evaluation order
		for i, r := range reqs {
			a := answers[i]
			if r.kind == kindWrite || errs[i] != nil || matched[i] || s < a.lo || s > a.hi {
				continue
			}
			var want reference
			if r.kind == kindAdhoc {
				want = countReference(threePathCount(g, r.v))
			} else {
				key := fmt.Sprint(a.res.Vars, a.res.GAO)
				ref, seen := readRefs[key]
				if !seen {
					var err error
					if ref, err = b.pathsRef(g)(a.res); err != nil {
						return err
					}
					readRefs[key] = ref
				}
				want = ref
			}
			matched[i] = want.matches(a.res)
		}
		if s < int64(len(writes)) {
			g.apply(writes[s])
		}
	}
	var unmatched []int
	for i, r := range reqs {
		if r.kind != kindWrite && errs[i] == nil && !matched[i] {
			unmatched = append(unmatched, i)
		}
	}
	if len(unmatched) == 0 {
		return nil
	}
	torn := b.tornReads(writes, answers, unmatched)
	for _, i := range unmatched {
		a := answers[i]
		errs[i] = fmt.Errorf("%w: %s of %d tuples (hash %x) matches no state between writes %d and %d%s",
			errCorrupt, kindNames[reqs[i].kind], a.res.Tuples, a.res.Hash, a.lo, a.hi, torn[i])
	}
	return nil
}

// tornReads explains unmatched reads of the selective path join: for a
// read that overlapped write s, it tests whether the answer joins E(A,B)
// from one side of the write with E(B,C) from the other, a state no
// single version of E has. It rewinds the benchmark's copy of E (left at
// the final state by checkOpen) to the generated data first.
func (b *bench) tornReads(writes []*writeOp, answers []openAnswer, unmatched []int) map[int]string {
	g := b.d.g
	for s := len(writes) - 1; s >= 0; s-- {
		g.apply(&writeOp{insert: !writes[s].insert, tuples: writes[s].tuples})
	}
	out := map[int]string{}
	k := b.k
	for s, w := range writes {
		before := g.succ
		after := func(u int) []int {
			m := map[int]bool{}
			for v := range g.out[u] {
				m[v] = true
			}
			for _, t := range w.tuples {
				if t[0] == u {
					m[t[1]] = w.insert
				}
			}
			vs := make([]int, 0, len(m))
			for v, in := range m {
				if in {
					vs = append(vs, v)
				}
			}
			sort.Ints(vs)
			return vs
		}
		for _, i := range unmatched {
			a := answers[i]
			if int64(s) < a.lo || int64(s) >= a.hi || a.res == nil {
				continue
			}
			for _, mix := range []struct {
				first, second func(int) []int
				desc          string
			}{{after, before, "E(A,B) after and E(B,C) before"}, {before, after, "E(A,B) before and E(B,C) after"}} {
				ref, err := renderReference(mixedPaths(mix.first, mix.second, k), []string{"A", "B", "C"}, a.res.Vars, a.res.GAO)
				if err == nil && ref.matches(a.res) {
					out[i] = fmt.Sprintf(" (a torn read: it joins %s write %d, %s of %v)", mix.desc, s, w.op(), w.tuples)
				}
			}
		}
		g.apply(w)
	}
	return out
}

// mixedPaths lists E(A,B), E(B,C) with A < k where the first atom reads
// successors from first and the second from second.
func mixedPaths(first, second func(int) []int, k int) [][]int {
	var out [][]int
	for a := 0; a < k; a++ {
		for _, b := range first(a) {
			for _, c := range second(b) {
				out = append(out, []int{a, b, c})
			}
		}
	}
	return out
}
