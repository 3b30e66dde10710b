package edge

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/wire"
)

// TestMuxClientConcurrent exercises the pipelined client from many
// goroutines over one connection.
func TestMuxClientConcurrent(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		rng := rand.New(rand.NewSource(216))
		addr, srv := startServer(t, seedTasks(rng, 4, 3))
		m, err := DialMux(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		const workers = 8
		uploads := seedTasks(rng, workers, 3)
		var wg sync.WaitGroup
		errs := make(chan error, workers*3)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 4; rep++ {
					if _, _, err := m.FetchPrior(3); err != nil {
						errs <- err
						return
					}
				}
				if _, err := m.ReportTask(uploads[i]); err != nil {
					errs <- err
				}
				if _, err := m.Stats(); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if got := srv.Stats().Tasks; got != 4+workers {
			t.Errorf("server has %d tasks, want %d", got, 4+workers)
		}
	})
}

// TestMuxClientPoisonsOnClose: callers blocked in flight fail with the
// close error instead of hanging.
func TestMuxClientPoisonsOnClose(t *testing.T) {
	rng := rand.New(rand.NewSource(217))
	addr, _ := startServer(t, seedTasks(rng, 2, 3))
	m, err := DialMux(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FetchPrior(3); err == nil {
		t.Error("call on a closed mux client succeeded")
	}
}

// pipeServer runs a minimal framed request loop on one end of a pipe
// (the handshake is taken as done) until n responses have been served,
// then (if kill is set) slams the connection shut — the transport fault
// a mux client must surface.
func pipeServer(t *testing.T, conn net.Conn, n int, kill bool) {
	t.Helper()
	go func() {
		dec := wire.NewDecoder(conn, DefaultMaxFrameBytes)
		enc := wire.NewEncoder(conn)
		for i := 0; i < n; i++ {
			var req Request
			if dec.DecodeRequest(&req) != nil {
				return
			}
			if enc.EncodeResponse(&Response{Version: uint64(i + 1)}) != nil {
				return
			}
		}
		if kill {
			conn.Close()
			return
		}
		// Keep draining so a healthy client close is the only ending.
		for {
			var req Request
			if dec.DecodeRequest(&req) != nil {
				return
			}
			if enc.EncodeResponse(&Response{}) != nil {
				return
			}
		}
	}()
}

// TestMuxCloseReturnsTransportError: closing a mux whose connection a
// fault already poisoned returns that first error — the owner of a
// failing uplink learns why — and a second Close reports the same,
// idempotently.
func TestMuxCloseReturnsTransportError(t *testing.T) {
	a, b := net.Pipe()
	pipeServer(t, b, 1, true)
	m := NewMuxClient(a)

	if _, err := m.Stats(); err != nil {
		t.Fatalf("first round trip: %v", err)
	}
	// The server slammed the connection after one response; the next
	// call poisons the client with the receive error.
	if _, err := m.Stats(); err == nil {
		t.Fatal("round trip on a dead connection succeeded")
	}

	err := m.Close()
	if err == nil {
		t.Fatal("Close masked the transport error that poisoned the connection")
	}
	if errors.Is(err, errMuxClosed) {
		t.Fatalf("Close returned the deliberate-close sentinel, want the transport error: %v", err)
	}
	if again := m.Close(); !errors.Is(again, err) && again == nil {
		t.Errorf("second Close = %v, want the same recorded error", again)
	}
}

// TestMuxCloseHealthyIsNil: deliberately closing a healthy connection
// is not an error, and stays nil on repeat.
func TestMuxCloseHealthyIsNil(t *testing.T) {
	a, b := net.Pipe()
	pipeServer(t, b, 1, false)
	m := NewMuxClient(a)
	if _, err := m.Stats(); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("healthy Close = %v, want nil", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second healthy Close = %v, want nil", err)
	}
}

// TestBatchAddTask: one frame carries a whole round; the server appends
// in order, rebuilds once, and acknowledges the final version.
func TestBatchAddTask(t *testing.T) {
	rng := rand.New(rand.NewSource(218))
	addr, srv := startServer(t, nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := seedTasks(rng, 5, 3)
	version, done, err := c.BatchReportTasks(batch)
	if err != nil {
		t.Fatal(err)
	}
	if done != len(batch) {
		t.Errorf("BatchDone = %d, want %d", done, len(batch))
	}
	if version != uint64(len(batch)) {
		t.Errorf("version after batch = %d, want %d", version, len(batch))
	}
	if got := srv.Stats().Tasks; got != len(batch) {
		t.Errorf("server has %d tasks, want %d", got, len(batch))
	}
	// The prior built from the batch is fetchable.
	if _, _, err := c.FetchPrior(3); err != nil {
		t.Errorf("fetch after batch: %v", err)
	}

	// An empty batch is a no-op client-side, a rejection server-side.
	if _, done, err := c.BatchReportTasks(nil); err != nil || done != 0 {
		t.Errorf("empty batch: done=%d err=%v", done, err)
	}
}

// TestBatchAddTaskPartialFailure: a mid-batch validation rejection
// stops the batch at the bad task — earlier tasks stay applied, later
// ones are never attempted, and the error is a CodeBadRequest.
func TestBatchAddTaskPartialFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(219))
	addr, srv := startServer(t, nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	good := seedTasks(rng, 3, 3)
	batch := []dpprior.TaskPosterior{
		good[0],
		{Mu: mat.Vec{1, 2}, Sigma: mat.NewDense(3, 3), N: 10}, // shape mismatch
		good[1],
	}
	_, _, err = c.BatchReportTasks(batch)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Fatalf("partial batch error = %v, want CodeBadRequest", err)
	}
	if got := srv.Stats().Tasks; got != 1 {
		t.Errorf("server has %d tasks after partial batch, want 1", got)
	}
}
