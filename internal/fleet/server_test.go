package fleet

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestNewServerDropsStalledClient pins the slow-client guard on the
// daemons' HTTP port: a connection that sends half a request line and
// then nothing is closed by the server once ReadHeaderTimeout passes,
// while a concurrent /healthz still answers.
func TestNewServerDropsStalledClient(t *testing.T) {
	srv := NewServer("", NewHandler(NewHead(HeadConfig{})))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout/IdleTimeout = %v/%v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v: it would cut /fleet/events/stream", srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond // the production value, shortened for the test

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte("GET /heal")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("/healthz while a client stalls: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while a client stalls = %d, want 200", resp.StatusCode)
	}

	// The server hangs up on the stalled connection: the read ends with
	// EOF (or a reset) well before this generous deadline, not with a
	// timeout on our side.
	stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(stalled)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still holds the stalled connection after %v", time.Since(start))
	}
}
