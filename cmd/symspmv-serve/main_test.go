package main

import (
	"net/http"
	"testing"
	"time"
)

// A client that never finishes its headers must not hold a connection for
// good: the server bounds the time it waits for them.
func TestHTTPServerBoundsHeaderTime(t *testing.T) {
	if hs := newHTTPServer(http.NotFoundHandler()); hs.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
}
