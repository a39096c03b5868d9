package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// outcome classifies one request.
type outcome int

const (
	ok      outcome = iota
	failed          // transport error or an unexpected status
	refused         // 429 or 5xx: the server declined the work
	wrong           // an answer that differs from the reference, or a corrupt response
)

// classify maps a request error to its outcome.
func classify(err error) outcome {
	var se *statusError
	switch {
	case err == nil:
		return ok
	case errors.Is(err, errCorrupt):
		return wrong
	case errors.As(err, &se) && (se.code == 429 || se.code >= 500):
		return refused
	default:
		return failed
	}
}

// recorder collects the samples of one measured run. Request latencies
// are in milliseconds.
type recorder struct {
	limitMS float64

	mu         sync.Mutex
	run        []float64 // registered runs (warm, or all reads under the open loop)
	firstTuple []float64
	firstByte  []float64
	adhoc      []float64
	write      []float64
	raw        []float64 // the first registered run after a write
	runTuples  int64     // tuples delivered by the registered runs in run
	runBytes   int64
	attempted  int
	outcomes   [4]int
	within     int
	errs       []string
}

// note counts one request: its outcome, and whether it was answered
// correctly within the latency limit.
func (r *recorder) note(kind string, latencyMS float64, err error) outcome {
	o := classify(err)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.outcomes[o]++
	if o == ok && latencyMS <= r.limitMS {
		r.within++
	}
	if o != ok {
		msg := fmt.Sprintf("%s: %v", kind, err)
		if len(r.errs) < 20 {
			r.errs = append(r.errs, msg)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	return o
}

func (r *recorder) add(dst *[]float64, v float64) {
	r.mu.Lock()
	*dst = append(*dst, v)
	r.mu.Unlock()
}

// addRun records a correct registered run.
func (r *recorder) addRun(latency, firstTuple, firstByte time.Duration, tuples int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run = append(r.run, ms(latency))
	r.firstTuple = append(r.firstTuple, ms(firstTuple))
	r.firstByte = append(r.firstByte, ms(firstByte))
	r.runTuples += int64(tuples)
	r.runBytes += bytes
}

func (r *recorder) errorCount() int {
	return r.outcomes[failed] + r.outcomes[refused] + r.outcomes[wrong]
}
