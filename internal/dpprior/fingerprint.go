package dpprior

import (
	"hash"
	"hash/fnv"
	"math"

	"github.com/drdp/drdp/internal/mat"
)

// Fingerprint returns a stable 64-bit identity for the task posterior's
// content (mean, covariance and sample count). The sharded cloud tier
// uses it twice: to route an upload to its shard (the same task always
// lands on the same shard, whichever edge or retry delivers it) and to
// deduplicate ambiguous re-uploads — a report whose ack was lost to a
// leader crash can be resent safely, because a fingerprint the shard has
// already appended is acknowledged without a second append.
//
// A square covariance enters through its upper triangle, mirrored: a Σ
// asymmetric in its last bits (Validate tolerates 1e-8·(1+max|Σ|))
// fingerprints as the symmetric matrix the store keeps, so an upload
// and its stored form (StoredTask.Fingerprint) always agree.
func (t *TaskPosterior) Fingerprint() uint64 {
	f := newFingerprint(t.Mu)
	if s := t.Sigma; s != nil {
		if d := s.Rows; s.Cols == d && len(s.Data) == d*d {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					f.float(s.Data[min(i, j)*d+max(i, j)])
				}
			}
		} else {
			for _, v := range s.Data {
				f.float(v)
			}
		}
	}
	return f.sum(t.N)
}

// fingerprint is an FNV-1a hash over little-endian 64-bit words: the
// mean's length and entries, the covariance entries in row-major order,
// then the sample count.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint(mu mat.Vec) *fingerprint {
	f := &fingerprint{h: fnv.New64a()}
	f.word(uint64(len(mu)))
	for _, v := range mu {
		f.float(v)
	}
	return f
}

func (f *fingerprint) word(bits uint64) {
	for i := 0; i < 8; i++ {
		f.buf[i] = byte(bits >> (8 * i))
	}
	f.h.Write(f.buf[:])
}

func (f *fingerprint) float(v float64) { f.word(math.Float64bits(v)) }

func (f *fingerprint) sum(n int) uint64 {
	f.word(uint64(n))
	return f.h.Sum64()
}
