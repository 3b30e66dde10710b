package sim

import (
	"testing"

	"github.com/drdp/drdp/internal/trace"
)

// TestClusterAuditTraces runs the failover scenario in audit mode and
// checks the captured flight recorder: the promotion is retained as a
// pinned failover trace, and the rounds after the kill trace through the
// shard-map redirect onto the promoted leader.
func TestClusterAuditTraces(t *testing.T) {
	res, err := RunCluster(ClusterConfig{
		Shards: 2, Replicas: 2, Rounds: 4, TasksPerRound: 3,
		Faults: []Fault{{Round: 2, Shard: 0, Kind: KillLeader}},
		Seed:   1234, Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == nil {
		t.Fatal("audit run captured no flight-recorder snapshot")
	}
	if len(res.Faults) != 1 || res.Faults[0].Node == "" {
		t.Fatal("kill was not injected")
	}

	// The promotion survives as a pinned failover trace naming the new
	// leader.
	var promoted string
	for _, td := range res.Traces.Notable {
		if td.Name != "failover" || !td.Pinned {
			continue
		}
		root := td.Root()
		if !root.HasEvent("promoted") {
			t.Fatalf("failover trace lacks a promoted event:\n%s", td.Tree())
		}
		for _, ev := range root.Events {
			if ev.Name != "promoted" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "node" {
					promoted = a.Value
				}
			}
		}
	}
	if promoted == "" {
		t.Fatal("no pinned failover trace with a promoted event in the notable ring")
	}

	// Group every retained fragment by trace and merge, so each round is
	// one cross-node tree.
	byTrace := make(map[string][]*trace.TraceDump)
	for _, td := range append(append([]*trace.TraceDump(nil), res.Traces.Recent...), res.Traces.Notable...) {
		byTrace[td.Trace] = append(byTrace[td.Trace], td)
	}
	sawRedirect, sawPromotedServe := false, false
	for _, frags := range byTrace {
		td := trace.MergeDumps(frags)
		if td.Name != "cluster-round" {
			continue
		}
		for i := range td.Spans {
			sd := &td.Spans[i]
			if sd.HasEvent("redirect") {
				sawRedirect = true
			}
			// Rounds upload through BatchReportTasks, so the promoted
			// leader's successful serve span carries the batch kind.
			if sd.Name == "serve batch-add-task" && sd.Attr("node") == promoted && sd.Err == "" {
				sawPromotedServe = true
			}
		}
	}
	if !sawRedirect {
		t.Error("no round trace recorded the shard-map redirect after the kill")
	}
	if !sawPromotedServe {
		t.Errorf("no round trace holds a successful upload served by the promoted leader %s", promoted)
	}
}
