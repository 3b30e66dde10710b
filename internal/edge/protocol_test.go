package edge

import (
	"strings"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

func TestRequestKindString(t *testing.T) {
	tests := map[wire.RequestKind]string{
		GetPrior:             "get-prior",
		ReportTask:           "report-task",
		GetStats:             "get-stats",
		wire.RequestKind(99): "RequestKind(99)",
	}
	for k, want := range tests {
		if got := k.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestErrOf(t *testing.T) {
	if err := errOf(&Response{}); err != nil {
		t.Errorf("empty Err should be nil, got %v", err)
	}
	err := errOf(&Response{Err: "boom"})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("errOf = %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	// A port nobody listens on (reserved-but-closed) must error quickly.
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	srv, err := NewCloudServer(nil, minimalOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.ListenAndServe("256.256.256.256:0", nil); err == nil {
		t.Error("bad address accepted")
	}
}

func TestUnknownRequestKind(t *testing.T) {
	srv, err := NewCloudServer(nil, minimalOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp := srv.dispatch(&Request{Kind: wire.RequestKind(42)}, nil)
	if resp.Err == "" {
		t.Error("unknown request kind accepted")
	}
}

func TestLinkProfileZeroBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth did not panic")
		}
	}()
	LinkProfile{Name: "broken"}.TransferTime(10)
}

func minimalOpts() dpprior.BuildOptions {
	return dpprior.BuildOptions{Alpha: 1}
}
