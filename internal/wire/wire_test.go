package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
)

func testTask(dim int, seed float64) dpprior.TaskPosterior {
	mu := make(mat.Vec, dim)
	for i := range mu {
		mu[i] = seed + 0.25*float64(i)
	}
	sigma := mat.Eye(dim)
	sigma.ScaleBy(0.5 + 0.1*seed)
	return dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100 + int(seed)}
}

func testPrior(dim, comps int) *dpprior.Prior {
	p := &dpprior.Prior{Alpha: 1.5, BaseWeight: 0.1, BaseSigma: 2, Dim: dim}
	for k := 0; k < comps; k++ {
		mu := make(mat.Vec, dim)
		for i := range mu {
			mu[i] = float64(k) + 0.5*float64(i)
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(0.3 + 0.1*float64(k))
		p.Components = append(p.Components, dpprior.Component{
			Weight: 0.9 / float64(comps),
			Mu:     mu,
			Sigma:  sigma,
			Count:  float64(k + 1),
		})
	}
	return p
}

func testDelta(dim int) *dpprior.PriorDelta {
	return &dpprior.PriorDelta{
		FromVersion: 3, ToVersion: 7,
		Alpha: 1.2, BaseWeight: 0.15, BaseSigma: 1.8, Dim: dim,
		NumComponents: 2,
		Keep:          []dpprior.DeltaKeep{{Old: 0, New: 1, Weight: 0.4, Count: 3}},
		Add:           []dpprior.DeltaAdd{{New: 0, Comp: testPrior(dim, 1).Components[0]}},
	}
}

// TestRequestRoundTrip pins the binary codec on one request of every
// kind: decode(encode(x)) must reproduce x exactly.
func TestRequestRoundTrip(t *testing.T) {
	task := testTask(4, 1)
	reqs := []Request{
		{Kind: GetPrior, Dim: 8, KnownVersion: 42, MinVersion: 7, TraceID: 0xdead, ParentSpan: 0xbeef},
		{Kind: ReportTask, Task: &task},
		{Kind: GetStats},
		{Kind: GetPriorDelta, Dim: 4, KnownVersion: 3, MinVersion: 2},
		{Kind: PullLog, FollowerID: 2, AfterSeq: 99, MaxFrames: 64},
		{Kind: GetShardMap, KnownVersion: 5},
		{Kind: BatchAddTask, Tasks: []dpprior.TaskPosterior{testTask(3, 1), testTask(3, 2), testTask(3, 3)}},
	}
	for _, orig := range reqs {
		payload := AppendRequest(nil, &orig)
		var got Request
		if err := DecodeRequest(payload, &got, false); err != nil {
			t.Fatalf("%s: decode: %v", orig.Kind, err)
		}
		if !reflect.DeepEqual(&orig, &got) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", orig.Kind, got, orig)
		}
	}
}

// TestResponseRoundTrip pins the binary codec on every response payload
// shape: errors, priors, deltas, replication frames + verdicts, shard
// maps, stats, and batch acknowledgements.
func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Err: "edge: boom", Code: CodeBadRequest, Version: 9},
		{Prior: testPrior(3, 2), Version: 4},
		{Delta: testDelta(3), Version: 7},
		{NotModified: true, Version: 11},
		{
			Frames:     []Frame{{Seq: 1, Bytes: []byte{1, 2, 3}}, {Seq: 2, Bytes: []byte{4}}},
			VerdictMap: map[uint64]bool{1: true, 2: false},
			UpTo:       2, Version: 2,
		},
		{Map: &ShardMap{Version: 3, Shards: []ShardReplicas{
			{Leader: "a:1", Followers: []string{"b:1", "c:1"}},
			{Leader: "d:1", Followers: []string{}},
		}}},
		{Stats: Stats{Tasks: 5, PriorVersion: 2, Components: 3, WireBytes: 1000, Accepted: 4, Quarantined: 1, Rejected: 2}},
		{Version: 10, BatchDone: 7},
	}
	for i, orig := range resps {
		payload := AppendResponse(nil, &orig)
		var got Response
		if err := DecodeResponse(payload, &got, false); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(&orig, &got) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, orig)
		}
	}
}

// goldenHello and goldenAck are the handshake bytes of wire Version 1,
// byte for byte. Peers built against any earlier release send and expect
// exactly these, so they must never drift.
var (
	goldenHello = []byte{0x0b, 'D', 'R', 'D', 'W', 0x01, 0x01, 0, 0, 0, 0, 0}
	goldenAck   = []byte{'D', 'R', 'D', 'W', 0x01, 0x01, 0, 0}
)

// TestNegotiationHandshake pins both halves of the handshake to the
// golden bytes: the client sends exactly goldenHello and accepts
// goldenAck; the server answers goldenHello with exactly goldenAck.
func TestNegotiationHandshake(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- ClientHandshake(client, time.Second) }()
	got := make([]byte, len(goldenHello))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenHello) {
		t.Fatalf("client hello = % x, want % x", got, goldenHello)
	}
	if _, err := server.Write(goldenAck); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("client rejected the golden ack: %v", err)
	}

	var ackOut bytes.Buffer
	if err := ServerHandshake(bytes.NewReader(goldenHello), &ackOut); err != nil {
		t.Fatalf("server rejected the golden hello: %v", err)
	}
	if !bytes.Equal(ackOut.Bytes(), goldenAck) {
		t.Fatalf("server ack = % x, want % x", ackOut.Bytes(), goldenAck)
	}
}

// TestServerHandshakeRejects: anything but a Version 1 binary hello is
// refused without a single byte of answer.
func TestServerHandshakeRejects(t *testing.T) {
	with := func(i int, v byte) []byte {
		b := append([]byte(nil), goldenHello...)
		b[i] = v
		return b
	}
	for name, in := range map[string][]byte{
		"empty":         nil,
		"truncated":     goldenHello[:7],
		"length byte":   with(0, 0x0c),
		"bad magic":     with(2, 'X'),
		"wrong version": with(5, 2),
		"codec 0":       with(6, 0),
		"frame":         {4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4},
	} {
		var out bytes.Buffer
		if err := ServerHandshake(bytes.NewReader(in), &out); err == nil {
			t.Errorf("%s: hello % x accepted", name, in)
		}
		if out.Len() != 0 {
			t.Errorf("%s: server answered % x", name, out.Bytes())
		}
	}
	err := ServerHandshake(bytes.NewReader(nil), io.Discard)
	if !errors.Is(err, io.EOF) {
		t.Errorf("empty stream error %v, want io.EOF", err)
	}
}

// TestClientHandshakeRejects: an ack that is not the Version 1 binary
// ack — including a server choosing codec 0 — fails the handshake.
func TestClientHandshakeRejects(t *testing.T) {
	with := func(i int, v byte) []byte {
		b := append([]byte(nil), goldenAck...)
		b[i] = v
		return b
	}
	for name, answer := range map[string][]byte{
		"closed":        nil,
		"truncated":     goldenAck[:3],
		"bad magic":     with(0, 'X'),
		"wrong version": with(4, 0),
		"codec 0":       with(5, 0),
	} {
		client, server := net.Pipe()
		go func() {
			io.ReadFull(server, make([]byte, len(goldenHello))) //nolint:errcheck
			server.Write(answer)                                //nolint:errcheck
			server.Close()
		}()
		if err := ClientHandshake(client, time.Second); err == nil {
			t.Errorf("%s: ack % x accepted", name, answer)
		}
		client.Close()
	}
}

// TestFrameRoundTrip runs requests and responses through the framed
// Encoder/Decoder pair — header, CRC, and payload together.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	defer enc.Release()
	task := testTask(4, 2)
	req := &Request{Kind: ReportTask, Task: &task}
	resp := &Response{Prior: testPrior(4, 3), Version: 12}
	if err := enc.EncodeRequest(req); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeResponse(resp); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf, 1<<20)
	defer dec.Release()
	var gotReq Request
	if err := dec.DecodeRequest(&gotReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, &gotReq) {
		t.Errorf("framed request mismatch:\n got %+v\nwant %+v", gotReq, req)
	}
	var gotResp Response
	if err := dec.DecodeResponse(&gotResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, &gotResp) {
		t.Errorf("framed response mismatch:\n got %+v\nwant %+v", gotResp, resp)
	}
}

// TestFrameCRCMismatch: a flipped payload bit must fail the frame, not
// produce a half-decoded message.
func TestFrameCRCMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	defer enc.Release()
	if err := enc.EncodeRequest(&Request{Kind: GetStats}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0x40
	dec := NewDecoder(bytes.NewReader(b), 0)
	defer dec.Release()
	var got Request
	err := dec.DecodeRequest(&got)
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt frame decoded: err=%v", err)
	}
}

// TestFrameLimit: a frame larger than the decoder's limit is rejected
// from the header alone, before any payload allocation.
func TestFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	defer enc.Release()
	tasks := make([]dpprior.TaskPosterior, 8)
	for i := range tasks {
		tasks[i] = testTask(8, float64(i))
	}
	if err := enc.EncodeRequest(&Request{Kind: BatchAddTask, Tasks: tasks}); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf, 64)
	defer dec.Release()
	var got Request
	err := dec.DecodeRequest(&got)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame decoded: err=%v", err)
	}
}

// TestDecodeRejectsGiantCount: a payload whose element count claims far
// more elements than the remaining bytes could hold must fail without
// attempting the allocation.
func TestDecodeRejectsGiantCount(t *testing.T) {
	payload := AppendRequest(nil, &Request{Kind: BatchAddTask, Tasks: []dpprior.TaskPosterior{testTask(2, 1)}})
	// The batch count is the u32 straight after the fixed request header:
	// type+kind+flags + dim + known + min + follower + after + maxFrames
	// + traceID + parentSpan = 1+1+2 + 4+8+8+4+8+4+8+8 = 56 bytes.
	binary.LittleEndian.PutUint32(payload[56:], 0xFFFFFFFF)
	var got Request
	err := DecodeRequest(payload, &got, false)
	if err == nil || !strings.Contains(err.Error(), "element count") {
		t.Fatalf("giant count decoded: err=%v", err)
	}
}

// TestDecodeRejectsTrailingBytes: a structurally valid payload with
// extra bytes is corrupt, not decodable.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload := AppendRequest(nil, &Request{Kind: GetStats})
	payload = append(payload, 0xAA)
	var got Request
	if err := DecodeRequest(payload, &got, false); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	rpayload := AppendResponse(nil, &Response{Version: 1})
	rpayload = append(rpayload, 0xAA)
	var gotResp Response
	if err := DecodeResponse(rpayload, &gotResp, false); err == nil {
		t.Fatal("trailing bytes accepted on response")
	}
}

// TestDecodeWrongMessageType: a request payload fed to the response
// decoder (and vice versa) fails on the type byte.
func TestDecodeWrongMessageType(t *testing.T) {
	reqPayload := AppendRequest(nil, &Request{Kind: GetStats})
	var resp Response
	if err := DecodeResponse(reqPayload, &resp, false); err == nil {
		t.Error("request payload decoded as response")
	}
	respPayload := AppendResponse(nil, &Response{Version: 1})
	var req Request
	if err := DecodeRequest(respPayload, &req, false); err == nil {
		t.Error("response payload decoded as request")
	}
}

// TestDecodeReuseRecycles: with reuse, a second decode into the same
// destination recycles the payload slices (same backing arrays) while
// still producing the right values.
func TestDecodeReuseRecycles(t *testing.T) {
	resp := &Response{Prior: testPrior(6, 4), Version: 5}
	payload := AppendResponse(nil, resp)
	var got Response
	if err := DecodeResponse(payload, &got, true); err != nil {
		t.Fatal(err)
	}
	firstMu := &got.Prior.Components[0].Mu[0]
	if err := DecodeResponse(payload, &got, true); err != nil {
		t.Fatal(err)
	}
	if &got.Prior.Components[0].Mu[0] != firstMu {
		t.Error("reuse decode reallocated a component mean")
	}
	if !reflect.DeepEqual(resp, &got) {
		t.Errorf("reuse decode mismatch:\n got %+v\nwant %+v", got, resp)
	}
}

// TestBinaryDecodeAllocBudget pins the codec's core promise: steady-state
// decode with reuse performs zero heap allocations per message, on both
// the hot upload payload (request with a task) and the hot download
// payload (response with a prior). make bench-wire gates on this test,
// so a regression fails CI, not just a benchmark eyeball.
func TestBinaryDecodeAllocBudget(t *testing.T) {
	task := testTask(8, 3)
	reqPayload := AppendRequest(nil, &Request{Kind: ReportTask, Task: &task})
	respPayload := AppendResponse(nil, &Response{Prior: testPrior(8, 6), Version: 9})

	var req Request
	var resp Response
	// Warm up so the reused buffers reach steady-state capacity.
	if err := DecodeRequest(reqPayload, &req, true); err != nil {
		t.Fatal(err)
	}
	if err := DecodeResponse(respPayload, &resp, true); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeRequest(reqPayload, &req, true); err != nil {
			t.Error(err)
		}
	}); allocs > 0 {
		t.Errorf("request decode with reuse allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeResponse(respPayload, &resp, true); err != nil {
			t.Error(err)
		}
	}); allocs > 0 {
		t.Errorf("response decode with reuse allocates %.1f/op, want 0", allocs)
	}
}

// TestRecordRoundTrip: every record kind survives a frame, a frame
// bounded by its own slice, and a decode; a task record carries the
// packed task in the dense layout requests carry it; and a frame
// claiming more bytes than its limit or its slice is refused.
func TestRecordRoundTrip(t *testing.T) {
	task := testTask(4, 0.5)
	st, err := dpprior.PackTask(task)
	if err != nil {
		t.Fatal(err)
	}
	prior := testPrior(4, 2)
	var b []byte
	b = AppendSnapshotHeader(b, 9, 1)
	b = AppendVerdictRecord(b, 7, true)
	b = AppendTaskRecord(b, 8, st)
	b = AppendPriorRecord(b, 9, prior)
	want := []Record{
		{Kind: SnapshotHeader, Version: 9, Count: 1},
		{Kind: VerdictRecord, Seq: 7, Quarantined: true},
		{Kind: TaskRecord, Seq: 8, Task: task},
		{Kind: PriorRecord, Version: 9, Prior: prior},
	}
	r := bytes.NewReader(b)
	for i, w := range want {
		start := len(b) - r.Len()
		payload, err := ReadFrame(r, int64(r.Len()), nil)
		if err != nil {
			t.Fatal(err)
		}
		if w.Kind == TaskRecord {
			if len(b[start:])-r.Len() != TaskRecordLen(4) {
				t.Errorf("task record is %d bytes, TaskRecordLen says %d", len(b[start:])-r.Len(), TaskRecordLen(4))
			}
			if !bytes.HasSuffix(AppendRequest(nil, &Request{Task: &task}), payload[9:]) {
				t.Error("task record does not carry the request layout of the dense task")
			}
		}
		if _, err := Unframe(b[start : len(b)-r.Len()]); err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := DecodeRecord(payload, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("record %d: got %+v, want %+v", i, got, w)
		}
	}
	frame := AppendVerdictRecord(nil, 1, false)
	if _, err := ReadFrame(bytes.NewReader(frame), int64(len(frame))-9, nil); err == nil {
		t.Error("frame longer than its limit was read")
	}
	if _, err := Unframe(append(frame, 0)); err == nil {
		t.Error("frame with a trailing byte was accepted")
	}
}
