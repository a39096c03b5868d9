package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running msserve process and the client that drives it.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	client  *http.Client
	dataDir string
	log     *os.File
	exited  chan struct{}
}

// newClient returns the benchmark's one HTTP client: at most maxConns
// connections to the server, so the load the program sees comes from a
// known number of sockets.
func newClient(maxConns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches msserve with the workload's flags and waits until
// it answers /healthz. dataDir, when set, is created empty and passed as
// -data-dir.
func startServer(bin string, flags []string, dataDir, logPath string, client *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	args = append(args, flags...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting msserve: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), client: client, dataDir: dataDir, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitStatus("/healthz", 20*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitStatus polls path until it answers 200.
func (s *server) waitStatus(path string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("msserve exited during start-up (see %s)", s.log.Name())
		default:
		}
		resp, err := s.client.Get(s.base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("msserve %s not ready after %s (last error %v)", path, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the process with SIGTERM (SIGKILL if it does not drain in
// time), waits for it, and removes its data directory.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
	s.log.Close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// peakRSSMB reads the server's high-water resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// do sends one request and decodes a JSON answer into out (when non-nil),
// failing on any non-200 status.
func (s *server) do(ctx context.Context, method, path, ctype string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding %q: %w", method, path, trim(data), err)
		}
	}
	return nil
}

// statusError is a non-200 answer. 429 and 5xx are refusals.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// stream sends a run request (GET /queries/{name}/run or POST /query)
// and reads the NDJSON answer; the times in the result count from the
// moment the request was handed to the client.
func (s *server) stream(ctx context.Context, method, path string, body []byte) (*streamResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sent := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(data))}
	}
	return readStream(resp.Body, sent)
}

// mutation is the answer to POST /relations/{name}/insert|delete.
type mutation struct {
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	Epoch    uint64 `json:"epoch"`
	Tuples   int    `json:"tuples"`
}

func (s *server) mutate(ctx context.Context, rel, op string, tuples [][]int) (mutation, error) {
	body, err := json.Marshal(map[string]any{"tuples": tuples})
	if err != nil {
		return mutation{}, err
	}
	var m mutation
	err = s.do(ctx, http.MethodPost, "/relations/"+rel+"/"+op, "application/json", body, &m)
	return m, err
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	AllocObjects int64 `json:"alloc_objects_total"`
	Executions   int64 `json:"executions"`
	Health       struct {
		SubstreamRetries int64 `json:"substream_retries"`
		Failovers        int64 `json:"failovers"`
	} `json:"health"`
}

func (s *server) stats(ctx context.Context) (serverStats, error) {
	var st serverStats
	err := s.do(ctx, http.MethodGet, "/stats", "", nil, &st)
	return st, err
}
