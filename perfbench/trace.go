package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share a request id; Parent is the id of the span that caused this one
// (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer's epoch
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  int64
	req   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t   *tracer
	idx int
}

// request allocates a fresh request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// start opens a span named name under parent (0 for a root) in request
// req.
func (t *tracer) start(name string, req, parent int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Request: req, Name: name, StartNS: now})
	return spanRef{t: t, idx: len(t.spans) - 1}
}

// id is the span's id, for use as a child's parent.
func (r spanRef) id() int64 {
	if r.t == nil {
		return 0
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	return r.t.spans[r.idx].ID
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	now := time.Since(r.t.epoch).Nanoseconds()
	r.t.mu.Lock()
	r.t.spans[r.idx].EndNS = now
	r.t.mu.Unlock()
}

// child records a finished child span that starts with r and lasts d,
// for parts of a call timed by the callee (the first byte of a
// response, say).
func (r spanRef) child(name string, d time.Duration) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	parent := r.t.spans[r.idx]
	r.t.next++
	r.t.spans = append(r.t.spans, span{ID: r.t.next, Parent: parent.ID, Request: parent.Request, Name: name,
		StartNS: parent.StartNS, EndNS: parent.StartNS + d.Nanoseconds()})
}

// timed runs fn inside a span and returns its duration in milliseconds.
func (t *tracer) timed(name string, req, parent int64, fn func()) float64 {
	sp := t.start(name, req, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return ms(d)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the summed duration and the summed
// self time: each span's duration minus the part of its interval that
// its child spans cover. Overlapping children (concurrent replica
// appends, say) are merged before subtracting, and a child's interval
// is clipped to its parent's, so self time is never negative.
func selfTimes(spans []span) []layerTime {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.EndNS - s.StartNS
		self := dur - covered(children[s.ID], s.StartNS, s.EndNS)
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans and their per-name self times as one JSON
// document.
func writeSpans(w io.Writer, spans []span) error {
	return json.NewEncoder(w).Encode(map[string]any{
		"spans":  spans,
		"layers": selfTimes(spans),
	})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
