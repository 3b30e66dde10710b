package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// on builds a tracer that samples everything, deterministically.
func on() *Tracer {
	return New(Config{SampleRate: 1, Seed: 42, SlowThreshold: -1})
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	if id := s.TraceID(); id != 0 {
		t.Fatalf("nil TraceID = %v, want 0", id)
	}
	if id := s.ID(); id != 0 {
		t.Fatalf("nil ID = %v, want 0", id)
	}
	tr, sp := s.WireContext()
	if tr != 0 || sp != 0 {
		t.Fatalf("nil WireContext = (%d,%d), want (0,0)", tr, sp)
	}
	if c := s.Child("x"); c != nil {
		t.Fatalf("nil Child = %v, want nil", c)
	}
	// None of these may panic.
	s.SetAttr(Str("k", "v"))
	s.Event("ev")
	s.End()
	s.EndErr(errors.New("boom"))
	if s.Failed() {
		t.Fatal("nil Failed = true")
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil Duration = %v, want 0", d)
	}
}

func TestUntracedPathAllocatesNothing(t *testing.T) {
	tr := New(Config{Seed: 1}) // sampling off
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartTrace("round")
		c := sp.Child("call")
		c.Event("retry")
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced path allocates %.1f per run, want 0", allocs)
	}
	joined := testing.AllocsPerRun(100, func() {
		sp := tr.Join(0, 0, "serve")
		sp.End()
	})
	if joined != 0 {
		t.Fatalf("untraced Join allocates %.1f per run, want 0", joined)
	}
}

func TestSpanTreeCompletesIntoRecorder(t *testing.T) {
	tr := on()
	root := tr.StartTrace("round", Int("round", 3))
	if root == nil {
		t.Fatal("sampled StartTrace returned nil")
	}
	call := root.Child("call report-task", Str("shard", "1"))
	call.Event("retry", Str("cause", "transport"))
	call.EndErr(errors.New("conn reset"))
	call2 := root.Child("call report-task")
	call2.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(snap.Recent))
	}
	td := snap.Recent[0]
	if td.Name != "round" {
		t.Fatalf("root name = %q, want round", td.Name)
	}
	if !td.Err {
		t.Fatal("trace with a failed span not marked Err")
	}
	if len(td.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(td.Spans))
	}
	rootd := td.Root()
	if rootd.Attr("round") != "3" {
		t.Fatalf("root round attr = %q, want 3", rootd.Attr("round"))
	}
	calls := td.SpansNamed("call report-task")
	if len(calls) != 2 {
		t.Fatalf("call spans = %d, want 2", len(calls))
	}
	if calls[0].Parent != rootd.ID {
		t.Fatalf("call parent = %s, want %s", calls[0].Parent, rootd.ID)
	}
	if !calls[0].HasEvent("retry") {
		t.Fatal("retry event missing")
	}
	if calls[0].Err != "conn reset" {
		t.Fatalf("call err = %q", calls[0].Err)
	}
	// Err trace must also be pinned notable.
	if len(snap.Notable) != 1 || !snap.Notable[0].Notable {
		t.Fatalf("err trace not pinned: notable = %v", snap.Notable)
	}
}

func TestJoinAlwaysRecords(t *testing.T) {
	tr := New(Config{Seed: 7}) // head sampling OFF
	sp := tr.Join(0xabc, 0xdef, "serve report-task", Str("node", "s0r0"))
	if sp == nil {
		t.Fatal("Join with nonzero trace returned nil despite rate 0")
	}
	if sp.TraceID() != 0xabc {
		t.Fatalf("joined trace = %v, want abc", sp.TraceID())
	}
	sp.End()
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(snap.Recent))
	}
	if got := snap.Recent[0].Spans[0].Parent; got != SpanID(0xdef).String() {
		t.Fatalf("wire parent = %s, want %s", got, SpanID(0xdef).String())
	}
	if tr.Stats().Joined != 1 {
		t.Fatalf("joined stat = %d, want 1", tr.Stats().Joined)
	}
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	count := func(rate float64) int {
		tr := New(Config{SampleRate: rate, Seed: 99})
		n := 0
		for i := 0; i < 2000; i++ {
			if sp := tr.StartTrace("t"); sp != nil {
				sp.End()
				n++
			}
		}
		return n
	}
	a, b := count(0.25), count(0.25)
	if a != b {
		t.Fatalf("same seed, different sample counts: %d vs %d", a, b)
	}
	if a < 400 || a > 600 {
		t.Fatalf("rate 0.25 sampled %d/2000, want ≈500", a)
	}
	if got := count(0); got != 0 {
		t.Fatalf("rate 0 sampled %d, want 0", got)
	}
	if got := count(1); got != 2000 {
		t.Fatalf("rate 1 sampled %d, want 2000", got)
	}
}

func TestRingEvictionAndNotablePinning(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 3, Capacity: 4, NotableCapacity: 4, SlowThreshold: -1})
	// One error trace, then a burst of healthy traffic big enough to
	// evict it from the recent ring.
	bad := tr.StartTrace("failover-round")
	bad.EndErr(errors.New("leader down"))
	badID := bad.TraceID()
	for i := 0; i < 10; i++ {
		tr.StartTrace(fmt.Sprintf("healthy-%d", i)).End()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(snap.Recent))
	}
	for _, td := range snap.Recent {
		if td.Trace == badID.String() {
			t.Fatal("error trace should have been evicted from recent ring")
		}
	}
	found := tr.Find(badID)
	if len(found) == 0 {
		t.Fatal("error trace evicted from notable ring too — pinning failed")
	}
	if !found[0].Err || !found[0].Notable {
		t.Fatalf("pinned dump flags: err=%v notable=%v", found[0].Err, found[0].Notable)
	}
}

func TestSlowThresholdPinsTrace(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 5, SlowThreshold: time.Nanosecond})
	sp := tr.StartTrace("slow")
	time.Sleep(time.Millisecond)
	sp.End()
	snap := tr.Snapshot()
	if len(snap.Notable) != 1 {
		t.Fatalf("slow trace not pinned: notable = %d", len(snap.Notable))
	}
	// Negative threshold disables slow pinning.
	tr2 := New(Config{SampleRate: 1, Seed: 5, SlowThreshold: -1})
	sp2 := tr2.StartTrace("fast")
	time.Sleep(time.Millisecond)
	sp2.End()
	if n := len(tr2.Snapshot().Notable); n != 0 {
		t.Fatalf("disabled slow pinning still pinned %d", n)
	}
}

func TestRecordRetro(t *testing.T) {
	tr := on()
	start := time.Now().Add(-40 * time.Millisecond)
	tr.Record("repl pull", start, 40*time.Millisecond, nil, Int("frames", 3))
	tr.Record("repl pull", start, time.Millisecond, errors.New("lagging"))
	snap := tr.Snapshot()
	if len(snap.Recent) != 2 {
		t.Fatalf("recent = %d, want 2", len(snap.Recent))
	}
	ok, bad := snap.Recent[0], snap.Recent[1]
	if ok.Dur != 40*time.Millisecond || ok.Root().Attr("frames") != "3" {
		t.Fatalf("retro dump wrong: dur=%v frames=%q", ok.Dur, ok.Root().Attr("frames"))
	}
	if !bad.Err {
		t.Fatal("retro error not recorded")
	}
}

func TestSpanBoundsEnforced(t *testing.T) {
	tr := on()
	root := tr.StartTrace("bounded")
	for i := 0; i < maxEvents+10; i++ {
		root.Event("e")
	}
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.Child("c").End()
	}
	root.End()
	td := tr.Snapshot().Recent[0]
	if len(td.Root().Events) != maxEvents {
		t.Fatalf("events = %d, want %d", len(td.Root().Events), maxEvents)
	}
	if td.Root().Dropped != 10 {
		t.Fatalf("events dropped = %d, want 10", td.Root().Dropped)
	}
	if len(td.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want %d", len(td.Spans), maxSpansPerTrace)
	}
	if td.Dropped != 11 { // 10 overflow children + the root's own late slot… root was first, so 11 extra created
		// 1 root + 522 children created, 512 kept → 11 dropped.
		t.Fatalf("spans dropped = %d, want 11", td.Dropped)
	}
	if tr.Stats().SpansDropped != 11 {
		t.Fatalf("dropped stat = %d, want 11", tr.Stats().SpansDropped)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := on()
	sp := tr.StartTrace("once")
	sp.End()
	sp.EndErr(errors.New("late"))
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(snap.Recent))
	}
	if snap.Recent[0].Err {
		t.Fatal("late EndErr overwrote a finished span")
	}
	if tr.Stats().Completed != 1 {
		t.Fatalf("completed = %d, want 1", tr.Stats().Completed)
	}
}

func TestConcurrentSpansAndSnapshots(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 11, Capacity: 8, NotableCapacity: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartTrace("round", Int("g", int64(g)))
				var cwg sync.WaitGroup
				for c := 0; c < 3; c++ {
					cwg.Add(1)
					go func() {
						defer cwg.Done()
						ch := root.Child("call")
						ch.Event("retry")
						ch.End()
					}()
				}
				cwg.Wait()
				root.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := tr.Stats().Completed; got != 8*50 {
		t.Fatalf("completed = %d, want %d", got, 8*50)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	tr := on()
	root := tr.StartTrace("round")
	root.Child("call", Dur("backoff", 5*time.Millisecond), Int("attempt", 2), Str("set", "kl")).End()
	root.End()
	snap := tr.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Recent) != 1 || back.Recent[0].Trace != snap.Recent[0].Trace {
		t.Fatalf("round trip lost the trace: %+v", back.Recent)
	}
	call := back.Recent[0].SpansNamed("call")[0]
	if call.Attr("backoff") != "5ms" || call.Attr("attempt") != "2" || call.Attr("set") != "kl" {
		t.Fatalf("attrs lost in round trip: %+v", call.Attrs)
	}
}

func TestTreeRendering(t *testing.T) {
	tr := on()
	root := tr.StartTrace("round", Int("round", 2))
	call := root.Child("call report-task")
	call.Event("redirect", Str("to", "s0r1"))
	serve := call.Child("serve report-task", Str("node", "s0r1"))
	serve.End()
	call.End()
	root.EndErr(errors.New("partial"))
	td := tr.Snapshot().Recent[0]
	tree := td.Tree()
	for _, want := range []string{
		"trace " + td.Trace,
		"ERROR",
		"round (",
		"└─ call report-task",
		"· +", "redirect to=s0r1",
		"serve report-task", "node=s0r1",
	} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// serve must be nested deeper than call.
	if strings.Index(tree, "serve report-task") < strings.Index(tree, "call report-task") {
		t.Fatalf("child rendered before parent:\n%s", tree)
	}
}

func TestWireContextRoundTrip(t *testing.T) {
	origin := on()
	remote := New(Config{Seed: 13}) // remote has sampling off

	root := origin.StartTrace("round")
	call := root.Child("call")
	traceID, parent := call.WireContext()

	serve := remote.Join(traceID, parent, "serve")
	serve.Event("append", Int("version", 4))
	serve.End()
	call.End()
	root.End()

	// Remote fragment carries the originator's trace ID.
	rsnap := remote.Snapshot()
	if len(rsnap.Recent) != 1 {
		t.Fatalf("remote recent = %d, want 1", len(rsnap.Recent))
	}
	if rsnap.Recent[0].Trace != root.TraceID().String() {
		t.Fatalf("remote trace = %s, want %s", rsnap.Recent[0].Trace, root.TraceID())
	}
	if rsnap.Recent[0].Spans[0].Parent != call.ID().String() {
		t.Fatalf("remote parent = %s, want %s", rsnap.Recent[0].Spans[0].Parent, call.ID())
	}
}
