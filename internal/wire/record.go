package wire

import (
	"slices"

	"github.com/drdp/drdp/internal/dpprior"
)

// Records: what the durable store (package store) and the edge's prior
// cache keep on disk. Each record is one frame in the layout above, and
// each payload opens with a kind byte numbered after the message types,
// so no record reads as a message or as another kind of record:
//
//	TaskRecord      [kind][u64 seq][TaskPosterior]
//	VerdictRecord   [kind][u64 seq][u8 quarantined]
//	SnapshotHeader  [kind][u64 version][u64 count]
//	PriorRecord     [kind][u64 version][Prior]
//
// The TaskPosterior and Prior layouts are the ones messages carry. A
// store's log frame is therefore also what replication ships: Frame
// holds such a record verbatim.

// RecordKind is a record's leading payload byte.
type RecordKind uint8

// Record kinds.
const (
	TaskRecord     RecordKind = iota + msgResponse + 1 // a stored task and the seq that appended it
	VerdictRecord                                      // an admission verdict for the task at seq
	SnapshotHeader                                     // opens a snapshot: the version it covers and its task count
	PriorRecord                                        // a cached prior and its version
)

// Frame is one framed task record as the store's log holds it, and the
// sequence number it carries; replication and scrub repair ship it
// verbatim.
type Frame struct {
	Seq   uint64
	Bytes []byte
}

// Record is one decoded record. Which fields a kind sets is listed with
// each field; the rest keep their previous values.
type Record struct {
	Kind        RecordKind
	Seq         uint64 // TaskRecord, VerdictRecord
	Quarantined bool   // VerdictRecord
	Version     uint64 // SnapshotHeader, PriorRecord
	Count       uint64 // SnapshotHeader
	// Task (TaskRecord) reuses its storage across decodes: it is valid
	// until the next DecodeRecord into the same Record.
	Task  dpprior.TaskPosterior
	Prior *dpprior.Prior // PriorRecord, freshly allocated
}

// TaskRecordLen is the framed size of a TaskRecord for a task of
// dimension d.
func TaskRecordLen(d int) int {
	return frameHeaderLen + 1 + 8 + (4 + 8*d) + (1 + 4 + 4 + 4 + 8*d*d) + 8
}

// AppendTaskRecord appends the framed task record (seq, t) to b. Σ is
// written dense, its upper triangle mirrored, so the bytes are a pure
// function of the packed task.
func AppendTaskRecord(b []byte, seq uint64, t dpprior.StoredTask) []byte {
	d := t.Dim()
	b = slices.Grow(b, TaskRecordLen(d))
	start := len(b)
	b = openFrame(b)
	b = appendU8(b, byte(TaskRecord))
	b = appendU64(b, seq)
	b = appendF64s(b, t.Mu())
	b = appendU8(b, 1) // Σ present, as appendDense writes it
	b = appendU32(b, uint32(d))
	b = appendU32(b, uint32(d))
	b = appendU32(b, uint32(d*d))
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			b = appendF64(b, t.CovAt(i, j))
		}
	}
	b = appendI64(b, int64(t.N))
	return closeFrame(b, start)
}

// AppendVerdictRecord appends the framed verdict record for seq to b.
func AppendVerdictRecord(b []byte, seq uint64, quarantined bool) []byte {
	start := len(b)
	b = openFrame(b)
	b = appendU8(b, byte(VerdictRecord))
	b = appendU64(b, seq)
	q := byte(0)
	if quarantined {
		q = 1
	}
	b = appendU8(b, q)
	return closeFrame(b, start)
}

// AppendSnapshotHeader appends the framed header of a snapshot covering
// version and holding count task records to b.
func AppendSnapshotHeader(b []byte, version, count uint64) []byte {
	start := len(b)
	b = openFrame(b)
	b = appendU8(b, byte(SnapshotHeader))
	b = appendU64(b, version)
	b = appendU64(b, count)
	return closeFrame(b, start)
}

// AppendPriorRecord appends the framed prior record (version, p) to b.
func AppendPriorRecord(b []byte, version uint64, p *dpprior.Prior) []byte {
	start := len(b)
	b = openFrame(b)
	b = appendU8(b, byte(PriorRecord))
	b = appendU64(b, version)
	b = appendPrior(b, p)
	return closeFrame(b, start)
}

// DecodeRecord decodes one record payload (a frame's CRC-verified
// contents, see ReadFrame and Unframe) into rec. Like message decoding
// it bounds every count by the bytes left and refuses trailing bytes.
func DecodeRecord(payload []byte, rec *Record) error {
	r := &rbuf{b: payload}
	rec.Kind = RecordKind(r.u8())
	switch rec.Kind {
	case TaskRecord:
		rec.Seq = r.u64()
		decodeTask(r, &rec.Task, true)
	case VerdictRecord:
		rec.Seq = r.u64()
		rec.Quarantined = r.boolean()
	case SnapshotHeader:
		rec.Version = r.u64()
		rec.Count = r.u64()
	case PriorRecord:
		rec.Version = r.u64()
		rec.Prior = decodePrior(r, nil, false)
	default:
		r.fail("unknown record kind %d", rec.Kind)
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("record has %d trailing bytes", r.remaining())
	}
	return r.err
}
