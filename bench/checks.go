package main

import (
	"fmt"
	"math"
)

// Thresholds of the correctness checks.
const (
	minSetupComponents = 3    // the prior the fitting workloads train against must be a real mixture
	accuracySlack      = 0.01 // DRDP may trail local ERM by at most this much held-out accuracy
	minResponseShare   = 0.10 // prior_fanout: each response kind's share of answers
	minUpBytesRatio    = 2.0  // tiered_sync: raw bytes ÷ summarized bytes shipped upward
	minPoisonCaught    = 0.5  // ingest_burst: share of adversarial uploads quarantined
	maxTraceOverhead   = 0.10 // traced runs: 1 − traced ÷ untraced throughput
	minOverheadPairs   = 10   // cycle pairs below which the overhead is reported but not judged
)

// evidence is what the correctness checks read: the workload's own
// observations plus a few process-wide counter readings. Everything in
// it is a plain value, so a test can corrupt one field and watch the
// matching check fire.
type evidence struct {
	obs       *observations
	badPriors int // fetched priors with wrong weights or dimension
	failedOps int

	// Server answers to prior fetches during the timed section.
	respFull, respDelta, respNotModified float64
	gobMsgs                              float64 // gob messages on any connection, whole process
	timedDials                           float64 // client connections (re)opened during the timed section
}

// verify runs every correctness check that applies to the workload and
// returns one line per failure.
func verify(ev evidence) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	obs := ev.obs

	if ev.badPriors > 0 {
		failf("%d fetched priors had weights not summing to 1 or a dimension other than %d", ev.badPriors, obs.dim)
	}
	for codec, n := range obs.codecs {
		if codec != "binary" {
			failf("%d connections negotiated codec %q, want binary on every connection", n, codec)
		}
	}
	if len(obs.codecs) == 0 {
		failf("no connection reported its negotiated codec")
	}
	if ev.gobMsgs > 0 {
		failf("%g gob messages crossed the wire, want none", ev.gobMsgs)
	}
	if ev.timedDials != 0 {
		failf("edge.dials = %g during the timed section, but the harness opened 0 connections in it", ev.timedDials)
	}

	if !math.IsNaN(obs.accuracy) {
		if obs.setupComponents < minSetupComponents {
			failf("served prior has %d components after set-up, want >= %d", obs.setupComponents, minSetupComponents)
		}
		if obs.accuracyModels == 0 {
			failf("no model was sampled for the accuracy score")
		}
		if !(obs.accuracy >= obs.ermAccuracy-accuracySlack) {
			failf("accuracy %.4f is below local-only ERM %.4f by more than %.2f", obs.accuracy, obs.ermAccuracy, accuracySlack)
		}
	}

	if obs.reopenChecked {
		if obs.gotLen != obs.wantLen {
			failf("reopened store holds %d tasks, want %d (seed + acknowledged uploads)", obs.gotLen, obs.wantLen)
		}
		if obs.gotVersion != obs.wantVersion {
			failf("reopened store is at version %d, want %d", obs.gotVersion, obs.wantVersion)
		}
		if obs.poisonStored == 0 || float64(obs.poisonCaught) < minPoisonCaught*float64(obs.poisonStored) {
			failf("%d of %d adversarial uploads quarantined, want at least half", obs.poisonCaught, obs.poisonStored)
		}
		if ev.failedOps > 0 {
			failf("%d uploads were rejected, want 0 (every generated posterior is well-formed)", ev.failedOps)
		}
	}

	if obs.fanoutChecked {
		if obs.deltaChecked == 0 {
			failf("no delta-refreshed prior was compared with a full fetch")
		}
		if obs.deltaMismatched > 0 {
			failf("%d of %d delta-refreshed priors differ from a full fetch at the same version", obs.deltaMismatched, obs.deltaChecked)
		}
		total := ev.respFull + ev.respDelta + ev.respNotModified
		for _, kind := range []struct {
			name string
			n    float64
		}{{"full", ev.respFull}, {"delta", ev.respDelta}, {"not-modified", ev.respNotModified}} {
			if total == 0 || kind.n/total < minResponseShare {
				failf("response kind %q is %g of %g answers, want a share >= %.2f", kind.name, kind.n, total, minResponseShare)
			}
		}
	}

	if obs.tieredChecked {
		if !obs.replicated {
			failf("WaitReplicated timed out: followers never caught up")
		}
		if !obs.followersLevel {
			failf("a follower's store version differs from its leader's")
		}
		st := obs.regionStats
		if st.UpBytes == 0 || float64(st.RawBytes)/float64(st.UpBytes) < minUpBytesRatio {
			failf("region.up_bytes_ratio = %d/%d, want >= %g", st.RawBytes, st.UpBytes, minUpBytesRatio)
		}
	}
	return fails
}
