package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"github.com/drdp/drdp/internal/telemetry"
)

// Binary framing: every message travels as
//
//	[u32 LE payload length][u32 LE IEEE CRC32 of payload][payload]
//
// The length is checked against the receiver's frame limit before any
// allocation, and the CRC before any decoding, so a torn or corrupt
// frame fails the connection instead of producing a half-decoded
// message. The durable store writes its records in the same frames
// (record.go) and reads them back through ReadFrame and Unframe.

// frameHeaderLen is the length+CRC prefix size.
const frameHeaderLen = 8

// bufPool recycles message buffers across connections and short-lived
// encoders, so a dial-heavy workload does not pay a fresh arena per
// connection.
var bufPool = sync.Pool{
	New: func() any { return make([]byte, 0, 4096) },
}

func getBuf() []byte  { return bufPool.Get().([]byte)[:0] }
func putBuf(b []byte) { bufPool.Put(b[:0]) } //nolint:staticcheck // slice header allocation is amortized by reuse

// Encoder writes framed binary messages to w, reusing one grow-only
// buffer across messages.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing framed messages to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: getBuf()}
}

// Release returns the encoder's buffer to the pool. The encoder must
// not be used afterwards.
func (e *Encoder) Release() {
	if e.buf != nil {
		putBuf(e.buf)
		e.buf = nil
	}
}

// EncodeRequest frames and writes one request.
func (e *Encoder) EncodeRequest(req *Request) error {
	return e.flush(AppendRequest(e.reserve(), req))
}

// EncodeResponse frames and writes one response.
func (e *Encoder) EncodeResponse(resp *Response) error {
	return e.flush(AppendResponse(e.reserve(), resp))
}

// reserve starts a fresh message, leaving room for the frame header.
func (e *Encoder) reserve() []byte {
	if e.buf == nil {
		e.buf = getBuf()
	}
	return openFrame(e.buf[:0])
}

// flush backfills the header over the appended payload and writes the
// whole frame in one call, so a message is never split across writes at
// this layer.
func (e *Encoder) flush(b []byte) error {
	e.buf = closeFrame(b, 0) // keep the grown buffer even on error
	n, err := e.w.Write(b)
	telemetry.WireBytesBinaryOut.Add(float64(n))
	if err != nil {
		return err
	}
	telemetry.WireMsgsBinaryOut.Inc()
	return nil
}

// Decoder reads framed binary messages from r, reusing one grow-only
// payload buffer across frames.
type Decoder struct {
	r   io.Reader
	max int64
	buf []byte
}

// NewDecoder returns a Decoder reading framed messages from r. max
// bounds one frame's payload; <=0 means no limit.
func NewDecoder(r io.Reader, max int64) *Decoder {
	return &Decoder{r: r, max: max, buf: getBuf()}
}

// Release returns the decoder's buffer to the pool. The decoder must
// not be used afterwards.
func (d *Decoder) Release() {
	if d.buf != nil {
		putBuf(d.buf)
		d.buf = nil
	}
}

// next reads one frame and returns its CRC-verified payload, valid
// until the next call.
func (d *Decoder) next() ([]byte, error) {
	if d.buf == nil {
		d.buf = getBuf()
	}
	limit := d.max
	if limit <= 0 {
		limit = math.MaxUint32
	}
	payload, err := ReadFrame(d.r, limit, d.buf)
	if err != nil {
		return nil, err
	}
	d.buf = payload
	telemetry.WireBytesBinaryIn.Add(float64(len(payload) + frameHeaderLen))
	telemetry.WireMsgsBinaryIn.Inc()
	return payload, nil
}

// openFrame appends a blank frame header to b; closeFrame fills it in
// once the payload has been appended behind it.
func openFrame(b []byte) []byte { return append(b, make([]byte, frameHeaderLen)...) }

// closeFrame writes the header at b[start:] for the payload that
// follows it up to the end of b.
func closeFrame(b []byte, start int) []byte {
	payload := b[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

// ReadFrame reads one frame from r and returns its CRC-verified payload
// in buf, which it grows when too small. A length above limit fails
// before anything is allocated: the store passes the bytes left in the
// file, so a corrupt length cannot claim more than the file holds. An
// io.EOF before the first header byte is returned as is (a clean end
// between frames); a frame cut short anywhere else is an error.
func ReadFrame(r io.Reader, limit int64, buf []byte) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > limit {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, limit)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(buf), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("wire: frame CRC mismatch: got %08x, want %08x", got, want)
	}
	return buf, nil
}

// Unframe returns the CRC-verified payload of b, which must hold
// exactly one frame: its length is bounded by b itself. The payload
// aliases b.
func Unframe(b []byte) ([]byte, error) {
	if len(b) < frameHeaderLen {
		return nil, fmt.Errorf("wire: %d-byte frame is shorter than its header", len(b))
	}
	payload := b[frameHeaderLen:]
	if n := binary.LittleEndian.Uint32(b[0:4]); int64(n) != int64(len(payload)) {
		return nil, fmt.Errorf("wire: frame of %d bytes carries %d", n, len(payload))
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return nil, fmt.Errorf("wire: frame CRC mismatch: got %08x, want %08x", got, want)
	}
	return payload, nil
}

// DecodeRequest reads and decodes one framed request into req, in fresh
// payload slices: its callers keep them (tasks go to the store).
func (d *Decoder) DecodeRequest(req *Request) error {
	payload, err := d.next()
	if err != nil {
		return err
	}
	return DecodeRequest(payload, req, false)
}

// DecodeResponse reads and decodes one framed response into resp, in
// fresh payload slices: its callers keep them (priors go to the cache).
func (d *Decoder) DecodeResponse(resp *Response) error {
	payload, err := d.next()
	if err != nil {
		return err
	}
	return DecodeResponse(payload, resp, false)
}
