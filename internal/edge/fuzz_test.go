package edge

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// FuzzHandleRequest drives the server's per-connection handler with
// arbitrary bytes where a connection's opening hello and request frames
// belong. Whatever the bytes are — a valid session, a half-valid request
// with hostile field values, a broken handshake, or garbage — the
// handler must neither panic nor hang; the worst allowed outcome is a
// dropped connection.
func FuzzHandleRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(900))
	task := seedTasks(rng, 1, 3)[0]
	// session is a hello followed by one binary frame per request.
	session := func(reqs ...Request) []byte {
		var buf bytes.Buffer
		buf.Write(goldenHello)
		enc := wire.NewEncoder(&buf)
		defer enc.Release()
		for i := range reqs {
			if err := enc.EncodeRequest(&reqs[i]); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	for _, req := range []Request{
		{Kind: GetPrior, Dim: 3},
		{Kind: GetPrior, Dim: -1, KnownVersion: ^uint64(0)},
		{Kind: GetPriorDelta, Dim: 3, KnownVersion: 1},
		{Kind: ReportTask, Task: &task},
		{Kind: ReportTask},
		{Kind: GetStats},
		{Kind: PullLog, FollowerID: 1, MaxFrames: 4},
		{Kind: GetShardMap, KnownVersion: 1},
		{Kind: BatchAddTask, Tasks: []dpprior.TaskPosterior{task}},
		{Kind: RequestKind(99)},
		// Trace context on the wire: joined, hostile, and parent-only.
		{Kind: GetPrior, Dim: 3, TraceID: 0xdeadbeef, ParentSpan: 0xfeedface},
		{Kind: ReportTask, Task: &task, TraceID: ^uint64(0), ParentSpan: ^uint64(0)},
		{Kind: GetStats, ParentSpan: 12345},
	} {
		f.Add(session(req))
	}
	f.Add(session(Request{Kind: GetStats}, Request{Kind: GetPrior, Dim: 3}))
	with := func(i int, v byte) []byte {
		b := append([]byte(nil), goldenHello...)
		b[i] = v
		return append(b, session(Request{Kind: GetStats})[len(goldenHello):]...)
	}
	f.Add(goldenHello[:5])   // truncated hello
	f.Add(with(1, 'X'))      // bad magic
	f.Add(with(5, 2))        // wrong version byte
	f.Add(gobRequestOpening) // a gob client of an earlier release
	oversized := binary.LittleEndian.AppendUint32(append([]byte(nil), goldenHello...), ^uint32(0))
	f.Add(append(oversized, 0, 0, 0, 0)) // frame length past MaxFrameBytes
	f.Add([]byte{})

	srv, err := NewCloudServer(seedTasks(rng, 4, 3), dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		f.Fatal(err)
	}
	srv.WaitCaughtUp()
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		server, client := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		// Drain whatever the server answers so its encoder never blocks
		// on the unbuffered pipe.
		go io.Copy(io.Discard, client) //nolint:errcheck
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(data) //nolint:errcheck
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("handler hung on fuzzed input")
		}
	})
}
