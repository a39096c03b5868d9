package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minesweeper"
)

// streamSlack is the scheduling allowance on top of streamFlushDelay in
// the timing assertions; generous enough for the race-detector rows.
const streamSlack = time.Second

// joinFixture returns R(A,B) with n rows (i, i mod fan) and S(B,C)
// with fan*out rows, so R(A,B), S(B,C) has n*out output tuples.
func joinFixture(n, fan, out int) (r, s [][]int) {
	for i := 0; i < n; i++ {
		r = append(r, []int{i, i % fan})
	}
	for b := 0; b < fan; b++ {
		for c := 0; c < out; c++ {
			s = append(s, []int{b, c})
		}
	}
	return r, s
}

// relText renders tuples in the relio text format for POST /relations.
func relText(header string, tuples [][]int) string {
	var sb strings.Builder
	sb.WriteString(header + "\n")
	for _, t := range tuples {
		for i, v := range t {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprint(&sb, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// loadJoin loads R and S into s and registers "rs" = R(A,B), S(B,C)
// with the GAO pinned to A, B, C.
func loadJoin(t *testing.T, s *server, r, sTuples [][]int) {
	t.Helper()
	wantStatus(t, do(t, s, "POST", "/relations", relText("R: A B", r)), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/relations", relText("S: B C", sTuples)), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries",
		`{"name":"rs","query":"R(A,B), S(B,C)","engine":"minesweeper","gao":["A","B","C"]}`), http.StatusOK)
}

// lineReader delivers a response body's lines on a channel, closing it
// at EOF or on a read error.
func lineReader(body io.Reader) <-chan string {
	lines := make(chan string, 16)
	go func() {
		defer close(lines)
		br := bufio.NewReader(body)
		for {
			l, err := br.ReadString('\n')
			if err != nil {
				return
			}
			lines <- l
		}
	}()
	return lines
}

// TestStalledStreamFlushesWithinDelay: while the engine is blocked
// after tuple k, the client still receives the header and tuples 1..k
// within the flush delay. The stall never releases until they have
// arrived, so only the delay timer can have flushed them.
func TestStalledStreamFlushesWithinDelay(t *testing.T) {
	const k, n = 5, 40
	stalled := make(chan time.Time, 1)
	release := make(chan struct{})
	var calls atomic.Int64
	cfg := defaultServerConfig()
	cfg.emitHook = func([]int) {
		if calls.Add(1) == k+1 {
			stalled <- time.Now()
			<-release
		}
	}
	s := newServerWith(newTestCatalog(t), cfg)
	defer s.Close()
	var rows [][]int
	for i := 0; i < n; i++ {
		rows = append(rows, []int{i, i + 1})
	}
	wantStatus(t, do(t, s, "POST", "/relations", relText("R: A B", rows)), http.StatusOK)
	wantStatus(t, do(t, s, "POST", "/queries", `{"name":"r","query":"R(A,B)"}`), http.StatusOK)

	ts := httptest.NewServer(s)
	defer ts.Close()
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall() // before ts.Close, which waits for the handler

	resp, err := http.Get(ts.URL + "/queries/r/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := lineReader(resp.Body)

	var t0 time.Time
	select {
	case t0 = <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("the run never reached the stall")
	}
	deadline := time.After(streamFlushDelay + streamSlack)
	for i := 0; i <= k; i++ { // header, then tuples 1..k
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended after %d lines", i)
			}
			if i > 0 && l != fmt.Sprintf("[%d,%d]\n", i-1, i) {
				t.Fatalf("line %d = %q", i, l)
			}
		case <-deadline:
			t.Fatalf("got %d of %d lines within %v of the stall; buffered tuples wait for the next emit",
				i, k+1, streamFlushDelay+streamSlack)
		}
	}
	if d := time.Since(t0); d > streamFlushDelay+streamSlack {
		t.Fatalf("tuple %d arrived %v after the stall, bound %v", k, d, streamFlushDelay+streamSlack)
	}

	unstall()
	var rest []string
	for l := range lines {
		rest = append(rest, l)
	}
	if len(rest) != n-k+1 {
		t.Fatalf("after the stall: %d lines, want %d tuples and the footer", len(rest), n-k+1)
	}
	var footer map[string]any
	if err := json.Unmarshal([]byte(rest[len(rest)-1]), &footer); err != nil || footer["done"] != true {
		t.Fatalf("footer %q: %v", rest[len(rest)-1], err)
	}
}

// TestLargeStreamMatchesInProcess: a result several buffers long,
// served over a real socket, is byte-identical to the header and tuple
// lines rendered from an in-process Execute of the same query.
func TestLargeStreamMatchesInProcess(t *testing.T) {
	rTuples, sTuples := joinFixture(500, 25, 20) // 10,000 tuples, ~120 KB
	s := newServerWith(newTestCatalog(t), defaultServerConfig())
	defer s.Close()
	loadJoin(t, s, rTuples, sTuples)

	R, err := minesweeper.NewRelation("R", 2, rTuples)
	if err != nil {
		t.Fatal(err)
	}
	S, err := minesweeper.NewRelation("S", 2, sTuples)
	if err != nil {
		t.Fatal(err)
	}
	q, err := minesweeper.ParseQuery("R(A,B), S(B,C)", map[string]*minesweeper.Relation{"R": R, "S": S})
	if err != nil {
		t.Fatal(err)
	}
	res, err := minesweeper.Execute(q, &minesweeper.Options{Engine: minesweeper.EngineMinesweeper, GAO: []string{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(map[string]any{"vars": res.Vars, "engine": res.Engine.String(), "gao": res.GAO})
	if err != nil {
		t.Fatal(err)
	}
	want := append(header, '\n')
	for _, tup := range res.Tuples {
		want = appendTupleLine(want, tup)
	}
	if len(want) <= 2*streamBufSize {
		t.Fatalf("fixture renders %d bytes, want more than two buffers", len(want))
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/queries/rs/run")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	footerAt := strings.LastIndexByte(strings.TrimSuffix(string(body), "\n"), '\n') + 1
	if got := body[:footerAt]; string(got) != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("served stream (%d bytes before the footer) differs from in-process rendering (%d bytes) at byte %d",
			len(got), len(want), i)
	}
	var footer map[string]any
	if err := json.Unmarshal(body[footerAt:], &footer); err != nil {
		t.Fatal(err)
	}
	if footer["done"] != true || footer["tuples"] != float64(len(res.Tuples)) {
		t.Fatalf("footer = %v, want done with %d tuples", footer, len(res.Tuples))
	}
}

// TestClientDisconnectCancelsBufferedStream: a client that hangs up
// mid-stream still cancels the run, although the buffered writer
// touches the socket far less often than once per tuple; /stats counts
// it as client_canceled.
func TestClientDisconnectCancelsBufferedStream(t *testing.T) {
	rTuples, sTuples := joinFixture(2000, 20, 50) // 100,000 tuples
	release := make(chan struct{})
	var calls atomic.Int64
	cfg := defaultServerConfig()
	cfg.emitHook = func([]int) {
		if calls.Add(1) == 2 {
			<-release // hold the run until the client is gone
		}
	}
	s := newServerWith(newTestCatalog(t), cfg)
	defer s.Close()
	loadJoin(t, s, rTuples, sTuples)

	ts := httptest.NewServer(s)
	defer ts.Close()
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall()

	resp, err := http.Get(ts.URL + "/queries/rs/run")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ { // header and tuple 1, flushed together
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close() // hang up mid-stream
	unstall()

	deadline := time.Now().Add(10 * time.Second)
	for {
		body := statsBody(t, s)
		if body["executions"] == float64(1) {
			if body["client_canceled"] != float64(1) {
				t.Fatalf("client_canceled = %v, want 1", body["client_canceled"])
			}
			if served, _ := body["tuples_served"].(float64); int(served) >= len(rTuples)*50 {
				t.Fatalf("served all %v tuples to a client that hung up", served)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run still going 10s after the client hung up: %v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamWriterFlushEndsEpoch: a flush disarms the delay timer
// until a write starts the next epoch, so a stream that fills its
// buffer within the delay never wakes the timer.
func TestStreamWriterFlushEndsEpoch(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := newStreamWriter(rec)
	defer sw.stop()

	sw.Write([]byte("[1,2]\n"))
	if sw.timer == nil {
		t.Fatal("a write into an empty buffer did not arm the delay timer")
	}
	sw.flush()
	if sw.timer.Stop() {
		t.Fatal("the delay timer was still armed after a flush")
	}
	if got := rec.Body.String(); got != "[1,2]\n" {
		t.Fatalf("client got %q", got)
	}
}
