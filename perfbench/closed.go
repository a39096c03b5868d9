package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"
)

// bench is one workload run against one server.
type bench struct {
	w   *workload
	s   *server
	d   *data
	rng *rand.Rand
	tr  *tracer
	rec *recorder
	// query is the registered query; k bounds its selective filter (open
	// loop only).
	query querySpec
	k     int
	ref   *reference // the registered run's answer on the generated data
	gao   []string
	vars  []string
}

// runRegistered sends one registered run and checks it against the
// reference ref gives; its latency counts from due, when it was due to
// be sent.
func (b *bench) runRegistered(ctx context.Context, due time.Time, ref func(*streamResult) (reference, error)) (*streamResult, time.Duration, error) {
	req := b.tr.request()
	sp := b.tr.start("msserve.read", req, 0)
	res, err := b.s.stream(ctx, http.MethodGet, "/queries/"+b.query.Name+"/run", nil)
	sp.end()
	lat := time.Since(due)
	if err != nil {
		return nil, lat, err
	}
	sp.child("msserve.first_byte", res.FirstByte)
	want, err := ref(res)
	if err != nil {
		return res, lat, err
	}
	if !want.matches(res) {
		return res, lat, fmt.Errorf("%w: registered run gave %d tuples (hash %x), reference %d (hash %x)",
			errCorrupt, res.Tuples, res.Hash, want.tuples, want.hash)
	}
	return res, lat, nil
}

// baseRef returns the reference of the generated (unmutated) data,
// computing it on first use with the evaluation order the first served
// run reported.
func (b *bench) baseRef(res *streamResult) (reference, error) {
	if b.ref == nil {
		r, err := engineReference(b.d.edges, b.query, res.GAO)
		if err != nil {
			return reference{}, err
		}
		b.ref, b.gao, b.vars = &r, res.GAO, res.Vars
	}
	if !sameStrings(res.GAO, b.gao) || !sameStrings(res.Vars, b.vars) {
		return reference{}, fmt.Errorf("%w: stream order changed from gao %v vars %v to %v %v", errCorrupt, b.gao, b.vars, res.GAO, res.Vars)
	}
	return *b.ref, nil
}

// delivered is how many join tuples a run delivered: the tuple lines,
// or the answer of a count query.
func (b *bench) delivered(res *streamResult) int {
	if b.query.Select == "count(*)" && len(res.First) == 1 {
		return res.First[0]
	}
	return res.Tuples
}

// minRuns is the fewest registered runs a closed loop times, however
// long they take: enough for a tail percentile with tailBeyond samples
// beyond it.
const minRuns = tailBeyond + 1

// closedLoop runs the closed-loop workload until the deadline: one
// client sends each registered run when the previous one has answered.
// It returns the loop's wall time.
func (b *bench) closedLoop(ctx context.Context, deadline time.Time) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		res, lat, err := b.runRegistered(ctx, t0, b.baseRef)
		if b.rec.note("run", ms(lat), err) == ok {
			b.rec.addRun(lat, res.FirstTuple, res.FirstByte, b.delivered(res), res.Bytes)
		}
		if ctx.Err() != nil {
			return time.Since(start), ctx.Err()
		}
	}
	return time.Since(start), nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
