package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the edge timeouts: header reads and idle
// keep-alives are bounded, writes are not (NDJSON streams are
// long-lived and bounded by the run deadline instead).
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("addr/handler = %q/%v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, ReadTimeout = %v, want both unset", srv.WriteTimeout, srv.ReadTimeout)
	}
}
