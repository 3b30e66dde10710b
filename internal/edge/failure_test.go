package edge

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

// TestServerSurvivesGarbageBytes throws random junk at the server; it
// must drop the connection without dying, and keep serving real clients.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 3), nil)

	for trial := 0; trial < 5; trial++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 512)
		rng.Read(junk)
		if _, err := conn.Write(junk); err != nil {
			t.Logf("junk write: %v", err)
		}
		conn.Close()
	}

	// Server still answers a well-formed client.
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.FetchPrior(3); err != nil {
		t.Errorf("server unhealthy after garbage: %v", err)
	}
}

// TestServerSurvivesAbruptDisconnect opens connections and drops them
// mid-protocol.
func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 3), nil)
	for trial := 0; trial < 5; trial++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// The hello, then half a frame header, then vanish.
		conn.Write(append(append([]byte(nil), goldenHello...), 0x20, 0x01))
		conn.Close()
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Errorf("server unhealthy after abrupt disconnects: %v", err)
	}
}

// TestClientErrorsAfterServerClose verifies clean client-side failure
// when the server goes away.
func TestClientErrorsAfterServerClose(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	addr, srv := startServerCfg(t, seedTasks(rng, 2, 3), nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.FetchPrior(3); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The next round trip must fail with an error, not hang or panic.
	done := make(chan error, 1)
	go func() {
		_, _, err := c.FetchPrior(3)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("round trip succeeded after server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("round trip hung after server close")
	}
}

// TestServerCloseIdempotent double-closes and closes-before-serve.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close before serve: %v", err)
	}
	rng := rand.New(rand.NewSource(173))
	addr, srv2 := startServerCfg(t, seedTasks(rng, 2, 3), nil)
	_ = addr
	if err := srv2.Close(); err != nil {
		t.Errorf("first close: %v", err)
	}
	if err := srv2.Close(); err != nil && !isClosedErr(err) {
		t.Errorf("second close: %v", err)
	}
}

// TestServeTwiceRejected verifies the second Serve call errors.
func TestServeTwiceRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	addr, srv := startServerCfg(t, seedTasks(rng, 2, 3), nil)
	// A round trip proves the first Serve owns the accept loop; otherwise
	// the second call below could register first and serve forever.
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("second Serve accepted")
	}
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// TestRoundTripTimeout verifies the per-round-trip deadline against a
// server that accepts but never responds: a lone call times out, two
// callers sharing a connection both fail within about one timeout, the
// expiry poisons the connection (later calls fail fast with the
// recorded error, which Close returns), and a write the peer never reads
// fails instead of hanging under the write lock.
func TestRoundTripTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Complete the handshake, then read forever, answer never.
			go func() {
				if wire.ServerHandshake(conn, conn) != nil {
					conn.Close()
					return
				}
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRoundTripTimeout(timeout)
	start := time.Now()
	if _, _, err := c.FetchPrior(3); err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, want ~100ms", elapsed)
	}

	t.Run("shared", func(t *testing.T) {
		c, err := Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetRoundTripTimeout(timeout)
		start := time.Now()
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				_, err := c.Stats()
				errs <- err
			}()
		}
		first, second := <-errs, <-errs
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("shared callers took %v to fail, want ~%v", elapsed, timeout)
		}
		if !errors.Is(first, os.ErrDeadlineExceeded) {
			t.Fatalf("first caller: %v, want a deadline error", first)
		}
		// One expiry poisons the connection, so the other caller fails
		// with the same recorded error rather than waiting out its own.
		if !errors.Is(second, first) {
			t.Errorf("second caller: %v, want the recorded %v", second, first)
		}
		start = time.Now()
		if _, _, err := c.FetchPrior(3); !errors.Is(err, first) {
			t.Errorf("call on a poisoned connection: %v, want the recorded %v", err, first)
		}
		if elapsed := time.Since(start); elapsed > timeout/2 {
			t.Errorf("call on a poisoned connection took %v, want an immediate failure", elapsed)
		}
		if err := c.Close(); !errors.Is(err, first) {
			t.Errorf("Close = %v, want the recorded %v", err, first)
		}
	})

	t.Run("unread write", func(t *testing.T) {
		a, b := net.Pipe() // synchronous: a write blocks until b reads
		defer b.Close()
		m := NewMuxClient(a)
		defer m.Close()
		m.SetRoundTripTimeout(timeout)
		done := make(chan error, 1)
		go func() {
			_, err := m.Stats()
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("unread write: %v, want a deadline error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a write the peer never reads hung past its timeout")
		}
	})
}
