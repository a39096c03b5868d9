package main

import (
	"bufio"
	"net/http"
	"sync"
	"time"
)

// Flush bounds of a run's NDJSON stream. A tuple line reaches the wire
// when the buffer fills or when it has waited streamFlushDelay,
// whichever comes first; the first tuple and the footer go out at once.
const (
	streamBufSize    = 32 << 10
	streamFlushDelay = 20 * time.Millisecond
)

// streamWriter buffers one run's NDJSON stream over its
// http.ResponseWriter, so a run pays one chunked write per 32 KiB
// instead of one per tuple. It pushes the buffer to the wire (buffer,
// then http.Flusher) when it fills, on flush, or when the oldest
// buffered byte has waited streamFlushDelay.
//
// The delay bound holds while the engine is stalled between tuples: a
// timer, armed by the write that starts a flush epoch (the first byte
// into an empty buffer, not per tuple), flushes from its own goroutine
// under the mutex shared with Write. Every flush ends the epoch and
// disarms the timer, so a stream that fills the buffer faster than
// streamFlushDelay never wakes it: the engine goroutine pays no timer
// goroutines and no mutex contention. stop disarms it for good; once
// stop returns, the timer never touches the ResponseWriter again, so
// the handler may finish the stream and return.
type streamWriter struct {
	mu      sync.Mutex
	buf     *bufio.Writer
	flusher http.Flusher
	timer   *time.Timer // created by the first arm; reused after
	stopped bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	flusher, _ := w.(http.Flusher)
	return &streamWriter{buf: bufio.NewWriterSize(w, streamBufSize), flusher: flusher}
}

// Write buffers p, first pushing the buffered lines to the wire when p
// does not fit, so a line shorter than the buffer is never split
// across two flushes.
func (sw *streamWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if len(p) > sw.buf.Available() && sw.buf.Buffered() > 0 {
		sw.flushLocked()
	}
	if sw.buf.Buffered() == 0 && !sw.stopped {
		if sw.timer == nil {
			sw.timer = time.AfterFunc(streamFlushDelay, sw.timerFlush)
		} else {
			sw.timer.Reset(streamFlushDelay)
		}
	}
	return sw.buf.Write(p)
}

// flush pushes everything buffered to the client now.
func (sw *streamWriter) flush() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.flushLocked()
}

// stop disarms the delay timer. A timer flush already in progress
// finishes before stop returns (it holds the mutex); one that fires
// later finds the writer stopped and does nothing. Writes after stop
// still buffer, and reach the wire only through flush.
func (sw *streamWriter) stop() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.stopped = true
	if sw.timer != nil {
		sw.timer.Stop()
	}
}

// timerFlush is the delay timer's callback. It may run late, after a
// flush it lost the mutex to has started a new epoch; it then flushes
// that epoch early, which the bound allows.
func (sw *streamWriter) timerFlush() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if !sw.stopped && sw.buf.Buffered() > 0 {
		sw.flushLocked()
	}
}

// flushLocked ends the flush epoch: the buffer goes to the wire and the
// delay timer is disarmed until the next write starts an epoch.
func (sw *streamWriter) flushLocked() {
	if sw.timer != nil {
		sw.timer.Stop()
	}
	// A failed write is sticky in bufio; net/http has already cancelled
	// the request context on it, which ends the run.
	if sw.buf.Flush() == nil && sw.flusher != nil {
		sw.flusher.Flush()
	}
}
