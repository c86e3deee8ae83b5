package main

import (
	"net/http"
	"testing"
)

// The server bounds header reads and idle keep-alive connections but
// sets no write timeout, which would cut long-polling GET
// /jobs/{id}?wait= requests short.
func TestNewServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	s := newServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler != h {
		t.Errorf("server addr %q handler %v, want the arguments", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (positive)", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v (positive)", s.IdleTimeout, idleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", s.WriteTimeout)
	}
}
