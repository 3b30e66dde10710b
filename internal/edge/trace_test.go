package edge

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// TestUntracedRequestAllocatesNoServerSpans drives a server whose tracer
// samples everything with untraced requests (TraceID 0): the server must
// neither join nor start a single trace.
func TestUntracedRequestAllocatesNoServerSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	srv, err := NewCloudServer(seedTasks(rng, 4, 3), dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.WaitCaughtUp()
	tr := trace.New(trace.Config{SampleRate: 1, Seed: 99})
	srv.SetTracer(tr)
	before := tr.Stats()

	for _, req := range []Request{
		{Kind: GetPrior, Dim: 3},
		{Kind: GetStats},
		{Kind: GetPriorDelta, Dim: 3, KnownVersion: 1},
	} {
		resp := srv.serveRequest(&req, nil)
		if resp == nil {
			t.Fatalf("%s: nil response", req.Kind)
		}
	}
	after := tr.Stats()
	if after.Joined != before.Joined {
		t.Fatalf("untraced requests joined %d traces", after.Joined-before.Joined)
	}

	// And the wire-level joined path DOES record when a TraceID arrives.
	sp := tr.Join(0x1234, 0x1, "serve get-stats")
	if sp == nil {
		t.Fatal("joined span expected for a traced request")
	}
	sp.End()
	if got := tr.Stats().Joined; got != before.Joined+1 {
		t.Fatalf("joined = %d, want %d", got, before.Joined+1)
	}
}
