package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
)

// The fixed-layout binary codec. Every message payload (the bytes
// inside one [length][crc] frame) starts with a message-type byte and
// encodes fields in a fixed order, little-endian, with float64s as
// IEEE-754 bits. Optional payloads are gated by a flags word instead of
// per-field presence bytes. There is no reflection anywhere: encoding
// appends into a caller-owned buffer, decoding walks an offset through
// the payload with explicit bounds checks, and every element count is
// sanity-checked against the bytes actually remaining before anything
// is allocated — a malformed frame can fail, but it cannot balloon
// memory or panic.

// Message type bytes.
const (
	msgRequest  = 1
	msgResponse = 2
)

// Request flag bits.
const (
	reqHasTask = 1 << iota
	reqHasTasks
)

// Response flag bits.
const (
	respHasErr = 1 << iota
	respNotModified
	respHasPrior
	respHasDelta
	respHasFrames
	respHasVerdicts
	respHasMap
	respHasStats
)

// maxWireString bounds one decoded string (error text, node address).
const maxWireString = 1 << 20

// ---------------------------------------------------------------------
// append helpers (encode side)

func appendU8(b []byte, v byte) []byte     { return append(b, v) }
func appendU16(b []byte, v uint16) []byte  { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int) []byte     { return appendU32(b, uint32(int32(v))) }
func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendF64s(b []byte, xs []float64) []byte {
	b = appendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = appendU64(b, math.Float64bits(x))
	}
	return b
}

// ---------------------------------------------------------------------
// rbuf (decode side): an offset walking a payload with a sticky error.
// Every getter bounds-checks; after the first failure all getters
// return zero values, so decode functions read straight through and
// check r.err once.

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *rbuf) remaining() int { return len(r.b) - r.off }

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("truncated payload: need %d bytes, have %d", n, r.remaining())
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *rbuf) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *rbuf) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *rbuf) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *rbuf) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *rbuf) i32() int      { return int(int32(r.u32())) }
func (r *rbuf) i64() int64    { return int64(r.u64()) }
func (r *rbuf) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *rbuf) boolean() bool { return r.u8() != 0 }

func (r *rbuf) str() string {
	n := r.u32()
	if n > maxWireString {
		r.fail("string length %d exceeds limit", n)
		return ""
	}
	s := r.take(int(n))
	return string(s)
}

// count reads an element count and verifies the payload could actually
// hold that many elements of at least minBytes each — the guard that
// keeps a corrupt count from driving a giant allocation.
func (r *rbuf) count(minBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minBytes) > int64(r.remaining()) {
		r.fail("element count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// f64s decodes a counted float64 slice. With reuse, dst's backing array
// is kept when it is big enough — the zero-allocation steady state.
func (r *rbuf) f64s(dst []float64, reuse bool) []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	if !reuse || cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	s := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return dst
}

// bytes decodes a counted byte slice, copying out of the frame buffer
// (which the decoder reuses for the next frame). With reuse, dst's
// backing array is kept when big enough.
func (r *rbuf) bytes(dst []byte, reuse bool) []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	if !reuse || cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	copy(dst, r.take(n))
	if r.err != nil {
		return nil
	}
	return dst
}

// ---------------------------------------------------------------------
// TaskPosterior

func appendTask(b []byte, t *dpprior.TaskPosterior) []byte {
	b = appendF64s(b, t.Mu)
	b = appendDense(b, t.Sigma)
	b = appendI64(b, int64(t.N))
	return b
}

func decodeTask(r *rbuf, t *dpprior.TaskPosterior, reuse bool) {
	t.Mu = r.f64s(t.Mu, reuse)
	t.Sigma = decodeDense(r, t.Sigma, reuse)
	t.N = int(r.i64())
}

func appendDense(b []byte, d *mat.Dense) []byte {
	if d == nil {
		return appendU8(b, 0)
	}
	b = appendU8(b, 1)
	b = appendU32(b, uint32(d.Rows))
	b = appendU32(b, uint32(d.Cols))
	b = appendF64s(b, d.Data)
	return b
}

func decodeDense(r *rbuf, old *mat.Dense, reuse bool) *mat.Dense {
	if !r.boolean() {
		return nil
	}
	rows, cols := int(r.u32()), int(r.u32())
	d := old
	if !reuse || d == nil {
		d = &mat.Dense{}
	}
	d.Rows, d.Cols = rows, cols
	d.Data = r.f64s(d.Data, reuse)
	if r.err == nil && len(d.Data) != rows*cols {
		r.fail("dense %dx%d carries %d values", rows, cols, len(d.Data))
	}
	return d
}

// ---------------------------------------------------------------------
// Prior / PriorDelta

func appendPrior(b []byte, p *dpprior.Prior) []byte {
	b = appendF64(b, p.Alpha)
	b = appendF64(b, p.BaseWeight)
	b = appendF64(b, p.BaseSigma)
	b = appendI32(b, p.Dim)
	b = appendU32(b, uint32(len(p.Components)))
	for i := range p.Components {
		b = appendComponent(b, &p.Components[i])
	}
	return b
}

func decodePrior(r *rbuf, old *dpprior.Prior, reuse bool) *dpprior.Prior {
	p := old
	if !reuse || p == nil {
		p = &dpprior.Prior{}
	}
	p.Alpha = r.f64()
	p.BaseWeight = r.f64()
	p.BaseSigma = r.f64()
	p.Dim = r.i32()
	// A component is at least weight+count+muLen+sigmaFlag = 21 bytes.
	n := r.count(21)
	if r.err != nil {
		return nil
	}
	if !reuse || cap(p.Components) < n {
		p.Components = make([]dpprior.Component, n)
	}
	p.Components = p.Components[:n]
	for i := range p.Components {
		decodeComponent(r, &p.Components[i], reuse)
	}
	return p
}

func appendComponent(b []byte, c *dpprior.Component) []byte {
	b = appendF64(b, c.Weight)
	b = appendF64(b, c.Count)
	b = appendF64s(b, c.Mu)
	b = appendDense(b, c.Sigma)
	return b
}

func decodeComponent(r *rbuf, c *dpprior.Component, reuse bool) {
	c.Weight = r.f64()
	c.Count = r.f64()
	c.Mu = r.f64s(c.Mu, reuse)
	c.Sigma = decodeDense(r, c.Sigma, reuse)
}

func appendDelta(b []byte, d *dpprior.PriorDelta) []byte {
	b = appendU64(b, d.FromVersion)
	b = appendU64(b, d.ToVersion)
	b = appendF64(b, d.Alpha)
	b = appendF64(b, d.BaseWeight)
	b = appendF64(b, d.BaseSigma)
	b = appendI32(b, d.Dim)
	b = appendI32(b, d.NumComponents)
	b = appendU32(b, uint32(len(d.Keep)))
	for _, k := range d.Keep {
		b = appendI32(b, k.Old)
		b = appendI32(b, k.New)
		b = appendF64(b, k.Weight)
		b = appendF64(b, k.Count)
	}
	b = appendU32(b, uint32(len(d.Add)))
	for i := range d.Add {
		b = appendI32(b, d.Add[i].New)
		b = appendComponent(b, &d.Add[i].Comp)
	}
	return b
}

func decodeDelta(r *rbuf, old *dpprior.PriorDelta, reuse bool) *dpprior.PriorDelta {
	d := old
	if !reuse || d == nil {
		d = &dpprior.PriorDelta{}
	}
	d.FromVersion = r.u64()
	d.ToVersion = r.u64()
	d.Alpha = r.f64()
	d.BaseWeight = r.f64()
	d.BaseSigma = r.f64()
	d.Dim = r.i32()
	d.NumComponents = r.i32()
	nk := r.count(24)
	if r.err != nil {
		return nil
	}
	if !reuse || cap(d.Keep) < nk {
		d.Keep = make([]dpprior.DeltaKeep, nk)
	}
	d.Keep = d.Keep[:nk]
	for i := range d.Keep {
		d.Keep[i].Old = r.i32()
		d.Keep[i].New = r.i32()
		d.Keep[i].Weight = r.f64()
		d.Keep[i].Count = r.f64()
	}
	na := r.count(25)
	if r.err != nil {
		return nil
	}
	if !reuse || cap(d.Add) < na {
		d.Add = make([]dpprior.DeltaAdd, na)
	}
	d.Add = d.Add[:na]
	for i := range d.Add {
		d.Add[i].New = r.i32()
		decodeComponent(r, &d.Add[i].Comp, reuse)
	}
	return d
}

// ---------------------------------------------------------------------
// Request

// AppendRequest encodes req after b's current contents and returns the
// extended slice. Exposed for benchmarks and tests; connections go
// through Encoder, which adds the frame header.
func AppendRequest(b []byte, req *Request) []byte {
	b = appendU8(b, msgRequest)
	b = appendU8(b, byte(req.Kind))
	var flags uint16
	if req.Task != nil {
		flags |= reqHasTask
	}
	if len(req.Tasks) > 0 {
		flags |= reqHasTasks
	}
	b = appendU16(b, flags)
	b = appendI32(b, req.Dim)
	b = appendU64(b, req.KnownVersion)
	b = appendU64(b, req.MinVersion)
	b = appendI32(b, req.FollowerID)
	b = appendU64(b, req.AfterSeq)
	b = appendI32(b, req.MaxFrames)
	b = appendU64(b, req.TraceID)
	b = appendU64(b, req.ParentSpan)
	if req.Task != nil {
		b = appendTask(b, req.Task)
	}
	if len(req.Tasks) > 0 {
		b = appendU32(b, uint32(len(req.Tasks)))
		for i := range req.Tasks {
			b = appendTask(b, &req.Tasks[i])
		}
	}
	return b
}

// DecodeRequest decodes one request payload into req, overwriting every
// field. With reuse, payload slices already hanging off req are
// recycled — only safe when the caller does not retain them past the
// next decode.
func DecodeRequest(payload []byte, req *Request, reuse bool) error {
	r := &rbuf{b: payload}
	if t := r.u8(); r.err == nil && t != msgRequest {
		return fmt.Errorf("wire: message type %d, want request", t)
	}
	req.Kind = RequestKind(r.u8())
	flags := r.u16()
	req.Dim = r.i32()
	req.KnownVersion = r.u64()
	req.MinVersion = r.u64()
	req.FollowerID = r.i32()
	req.AfterSeq = r.u64()
	req.MaxFrames = r.i32()
	req.TraceID = r.u64()
	req.ParentSpan = r.u64()
	if flags&reqHasTask != 0 {
		t := req.Task
		if !reuse || t == nil {
			t = &dpprior.TaskPosterior{}
		}
		decodeTask(r, t, reuse)
		req.Task = t
	} else {
		req.Task = nil
	}
	if flags&reqHasTasks != 0 {
		// A task is at least muLen+sigmaFlag+n = 13 bytes.
		n := r.count(13)
		if r.err != nil {
			return r.err
		}
		if !reuse || cap(req.Tasks) < n {
			req.Tasks = make([]dpprior.TaskPosterior, n)
		}
		req.Tasks = req.Tasks[:n]
		for i := range req.Tasks {
			decodeTask(r, &req.Tasks[i], reuse)
		}
	} else {
		req.Tasks = nil
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("request has %d trailing bytes", r.remaining())
	}
	return r.err
}

// ---------------------------------------------------------------------
// Response

// AppendResponse encodes resp after b's current contents and returns
// the extended slice.
func AppendResponse(b []byte, resp *Response) []byte {
	b = appendU8(b, msgResponse)
	b = appendU8(b, byte(resp.Code))
	var flags uint16
	if resp.Err != "" {
		flags |= respHasErr
	}
	if resp.NotModified {
		flags |= respNotModified
	}
	if resp.Prior != nil {
		flags |= respHasPrior
	}
	if resp.Delta != nil {
		flags |= respHasDelta
	}
	if resp.Frames != nil {
		flags |= respHasFrames
	}
	if resp.VerdictMap != nil {
		flags |= respHasVerdicts
	}
	if resp.Map != nil {
		flags |= respHasMap
	}
	if resp.Stats != (Stats{}) {
		flags |= respHasStats
	}
	b = appendU16(b, flags)
	b = appendU64(b, resp.Version)
	b = appendU64(b, resp.UpTo)
	b = appendI32(b, resp.BatchDone)
	if flags&respHasErr != 0 {
		b = appendStr(b, resp.Err)
	}
	if flags&respHasStats != 0 {
		b = appendI64(b, int64(resp.Stats.Tasks))
		b = appendU64(b, resp.Stats.PriorVersion)
		b = appendI64(b, int64(resp.Stats.Components))
		b = appendI64(b, int64(resp.Stats.WireBytes))
		b = appendI64(b, int64(resp.Stats.Accepted))
		b = appendI64(b, int64(resp.Stats.Quarantined))
		b = appendI64(b, int64(resp.Stats.Rejected))
	}
	if flags&respHasPrior != 0 {
		b = appendPrior(b, resp.Prior)
	}
	if flags&respHasDelta != 0 {
		b = appendDelta(b, resp.Delta)
	}
	if flags&respHasFrames != 0 {
		b = appendU32(b, uint32(len(resp.Frames)))
		for i := range resp.Frames {
			b = appendU64(b, resp.Frames[i].Seq)
			b = appendU32(b, uint32(len(resp.Frames[i].Bytes)))
			b = append(b, resp.Frames[i].Bytes...)
		}
	}
	if flags&respHasVerdicts != 0 {
		b = appendU32(b, uint32(len(resp.VerdictMap)))
		for seq, q := range resp.VerdictMap {
			b = appendU64(b, seq)
			if q {
				b = appendU8(b, 1)
			} else {
				b = appendU8(b, 0)
			}
		}
	}
	if flags&respHasMap != 0 {
		b = appendU64(b, resp.Map.Version)
		b = appendU32(b, uint32(len(resp.Map.Shards)))
		for i := range resp.Map.Shards {
			b = appendStr(b, resp.Map.Shards[i].Leader)
			b = appendU32(b, uint32(len(resp.Map.Shards[i].Followers)))
			for _, f := range resp.Map.Shards[i].Followers {
				b = appendStr(b, f)
			}
		}
	}
	return b
}

// DecodeResponse decodes one response payload into resp, overwriting
// every field. With reuse, payload slices already hanging off resp are
// recycled — only safe when the caller does not retain them past the
// next decode.
func DecodeResponse(payload []byte, resp *Response, reuse bool) error {
	r := &rbuf{b: payload}
	if t := r.u8(); r.err == nil && t != msgResponse {
		return fmt.Errorf("wire: message type %d, want response", t)
	}
	resp.Code = RespCode(r.u8())
	flags := r.u16()
	resp.Version = r.u64()
	resp.UpTo = r.u64()
	resp.BatchDone = r.i32()
	resp.NotModified = flags&respNotModified != 0
	if flags&respHasErr != 0 {
		resp.Err = r.str()
	} else {
		resp.Err = ""
	}
	if flags&respHasStats != 0 {
		resp.Stats.Tasks = int(r.i64())
		resp.Stats.PriorVersion = r.u64()
		resp.Stats.Components = int(r.i64())
		resp.Stats.WireBytes = int(r.i64())
		resp.Stats.Accepted = int(r.i64())
		resp.Stats.Quarantined = int(r.i64())
		resp.Stats.Rejected = int(r.i64())
	} else {
		resp.Stats = Stats{}
	}
	if flags&respHasPrior != 0 {
		resp.Prior = decodePrior(r, resp.Prior, reuse)
	} else {
		resp.Prior = nil
	}
	if flags&respHasDelta != 0 {
		resp.Delta = decodeDelta(r, resp.Delta, reuse)
	} else {
		resp.Delta = nil
	}
	if flags&respHasFrames != 0 {
		// A frame is at least seq+len = 12 bytes.
		n := r.count(12)
		if r.err != nil {
			return r.err
		}
		if !reuse || cap(resp.Frames) < n {
			resp.Frames = make([]Frame, n)
		}
		resp.Frames = resp.Frames[:n]
		for i := range resp.Frames {
			resp.Frames[i].Seq = r.u64()
			resp.Frames[i].Bytes = r.bytes(resp.Frames[i].Bytes, reuse)
		}
	} else {
		resp.Frames = nil
	}
	if flags&respHasVerdicts != 0 {
		n := r.count(9)
		if r.err != nil {
			return r.err
		}
		m := resp.VerdictMap
		if !reuse || m == nil {
			m = make(map[uint64]bool, n)
		} else {
			clear(m)
		}
		for i := 0; i < n; i++ {
			m[r.u64()] = r.boolean()
		}
		resp.VerdictMap = m
	} else {
		resp.VerdictMap = nil
	}
	if flags&respHasMap != 0 {
		m := resp.Map
		if !reuse || m == nil {
			m = &ShardMap{}
		}
		m.Version = r.u64()
		// A shard entry is at least leaderLen+followerCount = 8 bytes.
		n := r.count(8)
		if r.err != nil {
			return r.err
		}
		if !reuse || cap(m.Shards) < n {
			m.Shards = make([]ShardReplicas, n)
		}
		m.Shards = m.Shards[:n]
		for i := range m.Shards {
			m.Shards[i].Leader = r.str()
			nf := r.count(4)
			if r.err != nil {
				return r.err
			}
			if !reuse || cap(m.Shards[i].Followers) < nf {
				m.Shards[i].Followers = make([]string, nf)
			}
			m.Shards[i].Followers = m.Shards[i].Followers[:nf]
			for j := range m.Shards[i].Followers {
				m.Shards[i].Followers[j] = r.str()
			}
		}
		resp.Map = m
	} else {
		resp.Map = nil
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("response has %d trailing bytes", r.remaining())
	}
	return r.err
}
