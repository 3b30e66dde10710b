package edge

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
)

// The handshake contract: every connection opens with the 12-byte hello
// and the 8-byte ack, every client refuses a peer that does not ack, and
// a server closes any connection that does not open with a valid hello.

// goldenHello is the hello every client sends (wire Version 1).
var goldenHello = []byte{0x0b, 'D', 'R', 'D', 'W', 0x01, 0x01, 0, 0, 0, 0, 0}

// gobRequestOpening is how a gob-speaking client of an earlier release
// opened its stream: the start of the Request type definition.
var gobRequestOpening = []byte("\xff\x9f\x7f\x03\x01\x01\aRequest\x01\xff\x80\x00\x01\v\x01\x04Kind\x01\x04\x00\x01\x03Dim")

// startLegacyGobServer emulates a server of an earlier release that
// spoke only gob: it consumes the hello as one malformed gob message
// (the leading 0x0b reads as an 11-byte length) and closes the
// connection without answering.
func startLegacyGobServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.ReadFull(conn, make([]byte, len(goldenHello))) //nolint:errcheck
			}()
		}
	}()
	return ln.Addr().String()
}

// TestNegotiatedBinaryAgainstServer: a dial completes the handshake and
// serves the full RPC surface.
func TestNegotiatedBinaryAgainstServer(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	addr, _ := startServerCfg(t, seedTasks(rng, 5, 4), nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prior, version, err := c.FetchPrior(4)
	if err != nil {
		t.Fatal(err)
	}
	if version == 0 || prior.Dim != 4 {
		t.Fatalf("binary fetch: version=%d dim=%d", version, prior.Dim)
	}
	if _, err := c.ReportTask(seedTasks(rng, 1, 4)[0]); err != nil {
		t.Fatalf("binary report: %v", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("binary stats: %v", err)
	}
}

// TestStrictBinaryAgainstNegotiatingServer: the multiplexed dial
// completes the handshake too and reports the binary codec.
func TestStrictBinaryAgainstNegotiatingServer(t *testing.T) {
	rng := rand.New(rand.NewSource(230))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	m, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Codec().String(); got != "binary" {
		t.Fatalf("mux codec %q, want binary", got)
	}
	if _, _, err := m.FetchPrior(3); err != nil {
		t.Fatal(err)
	}
}

// TestStrictBinaryRefusesLegacyGobServer: a server that never acks the
// hello fails the dial; there is nothing to fall back to.
func TestStrictBinaryRefusesLegacyGobServer(t *testing.T) {
	c, err := Dial(startLegacyGobServer(t), time.Second)
	if err == nil {
		c.Close()
		t.Fatal("dial succeeded against a gob-only server")
	}
	if !strings.Contains(err.Error(), "read ack") {
		t.Errorf("dial error %q does not name the missing ack", err)
	}
}

// TestStrictBinaryMuxRefusesLegacyGobServer: a session over a
// caller-supplied dial function (the region's uplink) enforces the same
// contract.
func TestStrictBinaryMuxRefusesLegacyGobServer(t *testing.T) {
	addr := startLegacyGobServer(t)
	rc := NewResilientClient(func() (net.Conn, error) { return net.Dial("tcp", addr) },
		ResilientOptions{DialTimeout: time.Second, Logger: telemetry.Discard()})
	defer rc.Close()
	_, _, err := rc.FetchPrior(0)
	if err == nil {
		t.Fatal("session over a custom dial succeeded against a gob-only server")
	}
	if !strings.Contains(err.Error(), "read ack") {
		t.Errorf("session error %q does not name the missing ack", err)
	}
}

// TestStrictBinaryResilientRefusesLegacyGobServer: every attempt of a
// resilient client fails its handshake against a gob-only server, and
// every attempt dials afresh.
func TestStrictBinaryResilientRefusesLegacyGobServer(t *testing.T) {
	rc := DialResilient(startLegacyGobServer(t), ResilientOptions{
		Retry:       RetryPolicy{MaxAttempts: 2, Base: time.Millisecond},
		DialTimeout: 200 * time.Millisecond,
		Seed:        1,
		Logger:      telemetry.Discard(),
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()
	if _, _, err := rc.FetchPrior(3); err == nil {
		t.Fatal("resilient fetch succeeded against a gob-only server")
	}
	if st := rc.TransportStats(); st.Dials != 2 || st.Failures != 2 {
		t.Errorf("transport stats %+v, want 2 dials and 2 failures", st)
	}
}

// TestGobClientAgainstNegotiatingServer: a gob-speaking client of an
// earlier release is closed without a single byte of answer, and the
// refusal is counted as a decode error.
func TestGobClientAgainstNegotiatingServer(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	addr, _ := startServerCfg(t, seedTasks(rng, 5, 4), nil)
	before := telemetry.ServerDecodeErrors.Value()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(gobRequestOpening); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || err == nil {
		t.Fatalf("server answered %d bytes (err %v), want a close without answer", n, err)
	}
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server left the connection open")
	}
	if got := telemetry.ServerDecodeErrors.Value() - before; got < 1 {
		t.Errorf("decode errors moved by %g, want the refused handshake counted", got)
	}
	// The server keeps serving drdp peers.
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// recordingConn keeps a copy of everything written through it.
type recordingConn struct {
	net.Conn
	mu      sync.Mutex
	written bytes.Buffer
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.written.Write(p)
	r.mu.Unlock()
	return r.Conn.Write(p)
}

// TestResilientClientRedialsBinaryAfterHelloFault: a transient fault
// that kills the first connection during the hello costs one attempt,
// nothing more — the retry dials afresh, opens with the hello again, and
// the request completes on a binary session. (A client that took the
// dead hello for a gob-only server and latched onto gob would open the
// second connection with gob bytes instead.)
func TestResilientClientRedialsBinaryAfterHelloFault(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	faults := FaultConfig{Seed: 1, Reset: 1}
	var conns []*recordingConn
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if len(conns) == 0 {
			conns = append(conns, nil)
			return faults.Wrap(conn), nil // dies on its first write: the hello
		}
		rc := &recordingConn{Conn: conn}
		conns = append(conns, rc)
		return rc, nil
	}
	rc := NewResilientClient(dial, ResilientOptions{
		Retry:       RetryPolicy{MaxAttempts: 3, Base: time.Millisecond},
		DialTimeout: time.Second,
		Seed:        1,
		Logger:      telemetry.Discard(),
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()

	prior, _, err := rc.FetchPrior(3)
	if err != nil {
		t.Fatalf("fetch after a hello fault: %v", err)
	}
	if err := prior.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := rc.TransportStats(); st.Dials != 2 || st.Failures != 1 {
		t.Errorf("transport stats %+v, want 2 dials and 1 failure", st)
	}
	if len(conns) != 2 {
		t.Fatalf("%d connections dialed, want 2", len(conns))
	}
	conns[1].mu.Lock()
	opening := conns[1].written.Bytes()
	conns[1].mu.Unlock()
	if !bytes.HasPrefix(opening, goldenHello) {
		t.Fatalf("second connection opened with % x, want the hello % x", opening[:min(len(opening), 12)], goldenHello)
	}
}
