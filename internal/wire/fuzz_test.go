package wire

import (
	"bytes"
	"maps"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
)

// FuzzWireCodec throws arbitrary bytes at both decoders and both
// framing layers. Two properties must hold:
//
//  1. No input panics or balloons memory — malformed counts, truncated
//     payloads, and corrupt frames fail with an error.
//  2. Any payload that decodes re-encodes to a stable message:
//     decode(encode(decode(x))) == decode(x). Floats are compared by
//     their encoded bits (NaN payloads round-trip bit-exactly), and the
//     verdict map by key/value equality (its encode order is not
//     deterministic).
func FuzzWireCodec(f *testing.F) {
	task := testTask(3, 1)
	f.Add(AppendRequest(nil, &Request{Kind: GetPrior, Dim: 4, KnownVersion: 9, MinVersion: 2}))
	f.Add(AppendRequest(nil, &Request{Kind: ReportTask, Task: &task}))
	f.Add(AppendRequest(nil, &Request{Kind: BatchAddTask, Tasks: []dpprior.TaskPosterior{testTask(2, 1), testTask(2, 2)}}))
	f.Add(AppendResponse(nil, &Response{Err: "edge: boom", Code: CodeBadRequest}))
	f.Add(AppendResponse(nil, &Response{Prior: testPrior(3, 2), Version: 4}))
	f.Add(AppendResponse(nil, &Response{Delta: testDelta(2), Version: 7}))
	f.Add(AppendResponse(nil, &Response{
		Frames:     []Frame{{Seq: 1, Bytes: []byte{1, 2, 3}}},
		VerdictMap: map[uint64]bool{1: true},
		UpTo:       1,
	}))
	f.Add(AppendResponse(nil, &Response{Map: &ShardMap{Version: 1, Shards: []ShardReplicas{{Leader: "a:1", Followers: []string{"b:1"}}}}}))
	f.Add([]byte{})
	f.Add([]byte{msgRequest})
	f.Add([]byte{msgResponse, 0, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if DecodeRequest(payload, &req, false) == nil {
			enc := AppendRequest(nil, &req)
			var again Request
			if err := DecodeRequest(enc, &again, false); err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			if !bytes.Equal(enc, AppendRequest(nil, &again)) {
				t.Fatal("request re-encode is not stable")
			}
		}

		var resp Response
		if DecodeResponse(payload, &resp, false) == nil {
			enc := AppendResponse(nil, &resp)
			var again Response
			if err := DecodeResponse(enc, &again, false); err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			if !maps.Equal(resp.VerdictMap, again.VerdictMap) {
				t.Fatal("verdict map did not round-trip")
			}
			// The verdict map encodes in map order; compare the rest of the
			// message byte-wise without it.
			resp.VerdictMap, again.VerdictMap = nil, nil
			if !bytes.Equal(AppendResponse(nil, &resp), AppendResponse(nil, &again)) {
				t.Fatal("response re-encode is not stable")
			}
		}

		// The framing layer: arbitrary bytes as a frame stream must error
		// or decode, never panic, with allocation bounded by the limit.
		dec := NewDecoder(bytes.NewReader(payload), 1<<16)
		defer dec.Release()
		var fr Request
		_ = dec.DecodeRequest(&fr)
	})
}
