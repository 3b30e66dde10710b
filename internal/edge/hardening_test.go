package edge

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
)

// TestServerRecoversFromHandlerPanic: a panic while serving one
// connection is contained — the connection dies, the server lives.
func TestServerRecoversFromHandlerPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	srv, err := NewCloudServer(seedTasks(rng, 3, 3), buildOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.panicHook = func(req *Request) {
		if req.Kind == GetStats {
			panic("injected handler panic")
		}
	}
	addrCh := make(chan string, 1)
	go srv.ListenAndServe("127.0.0.1:0", addrCh)
	addr := <-addrCh
	t.Cleanup(func() { srv.Close() })

	// The poisoned request kills its connection...
	c1, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.SetRoundTripTimeout(time.Second)
	if _, err := c1.Stats(); err == nil {
		t.Fatal("round trip survived a handler panic")
	}

	// ...but the server keeps serving other connections and kinds.
	c2, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	defer c2.Close()
	if _, _, err := c2.FetchPrior(3); err != nil {
		t.Errorf("server unhealthy after panic: %v", err)
	}
}

// TestServerRejectsOversizedFrame: a frame larger than MaxFrameBytes is
// cut off instead of ballooning memory; the server stays healthy.
func TestServerRejectsOversizedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	srv, err := NewCloudServer(seedTasks(rng, 3, 4), buildOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxFrameBytes = 4 << 10 // 4 KiB: a big task posterior won't fit
	addrCh := make(chan string, 1)
	go srv.ListenAndServe("127.0.0.1:0", addrCh)
	addr := <-addrCh
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRoundTripTimeout(2 * time.Second)
	// A dim-100 posterior encodes to ~80 KB — far past the 4 KiB cap.
	big := dpprior.TaskPosterior{Mu: make(mat.Vec, 100), Sigma: mat.Eye(100), N: 10}
	if _, err := c.ReportTask(big); err == nil {
		t.Fatal("oversized frame accepted")
	}

	// Small frames still work on a fresh connection.
	c2, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c2.FetchPrior(4); err != nil {
		t.Errorf("server unhealthy after oversized frame: %v", err)
	}
	if got := srv.Stats().Tasks; got != 3 {
		t.Errorf("oversized report partially applied: %d tasks", got)
	}
}

// TestServerIdleTimeoutReclaimsConnection: a silent peer is disconnected
// once the idle deadline passes, instead of pinning a handler goroutine.
func TestServerIdleTimeoutReclaimsConnection(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	srv, err := NewCloudServer(seedTasks(rng, 2, 3), buildOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = 80 * time.Millisecond
	addrCh := make(chan string, 1)
	go srv.ListenAndServe("127.0.0.1:0", addrCh)
	addr := <-addrCh
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection not closed by the server")
	} else if strings.Contains(err.Error(), "timeout") {
		t.Fatal("server kept the idle connection open past its deadline")
	}
}

// TestServeAfterCloseDropsConnection: Serve started after Close must not
// register (and leak) connections that Close can no longer sweep.
func TestServeAfterCloseDropsConnection(t *testing.T) {
	srv, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Close accepted")
	}
}
