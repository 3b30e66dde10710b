package edge

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Injected fault errors, distinguishable from real network errors in
// test assertions and logs.
var (
	// ErrInjectedReset is returned (and the conn closed) by a scheduled
	// connection reset.
	ErrInjectedReset = errors.New("edge: injected connection reset")
	// ErrInjectedPartialWrite is returned after a scheduled short write.
	ErrInjectedPartialWrite = errors.New("edge: injected partial write")
)

// FaultConfig schedules deterministic faults on a connection. Each
// probability is evaluated per operation (Read or Write as noted) with
// the seeded per-connection RNG, so a given (Seed, traffic) pair always
// yields the same fault schedule — chaos tests are reproducible.
//
// Compose with LinkProfile.Throttle to get a slow AND lossy link:
//
//	conn = profile.Throttle(cfg.Wrap(conn))
//
// The zero value injects nothing.
type FaultConfig struct {
	// Seed drives the schedule; Wrap derives a distinct stream per
	// connection so redials see fresh (but still deterministic) faults.
	Seed int64

	// DropWrite silently discards the entire Write (reported as success).
	// The peer stalls until its read deadline — exactly what a lost
	// packet with a dead retransmit path does to a protocol.
	DropWrite float64
	// PartialWrite sends a prefix of the buffer then fails the Write,
	// leaving a torn frame on the peer's decoder.
	PartialWrite float64
	// CorruptWrite flips bits in the buffer before sending, poisoning the
	// peer's frame stream.
	CorruptWrite float64
	// CorruptRead flips bits in received data, poisoning our decoder.
	CorruptRead float64
	// Reset closes the connection and fails the op (both directions).
	Reset float64
	// DelayProb stalls the op by Delay before performing it.
	DelayProb float64
	// Delay is the injected stall duration.
	Delay time.Duration

	// FailAfterOps, when positive, hard-resets the connection after that
	// many successful Read/Write operations — a precise, probability-free
	// schedule for targeted tests.
	FailAfterOps int

	// wrapped counts connections wrapped so far; each gets its own RNG
	// stream derived from Seed. Guarded by faultMu (redials may race).
	wrapped int
}

// enabled reports whether the config can inject anything.
func (f FaultConfig) enabled() bool {
	return f.DropWrite > 0 || f.PartialWrite > 0 || f.CorruptWrite > 0 ||
		f.CorruptRead > 0 || f.Reset > 0 || f.DelayProb > 0 || f.FailAfterOps > 0
}

// Wrap decorates conn with the fault schedule. Each call derives an
// independent RNG stream from Seed, so every wrapped connection (e.g.
// across redials) gets its own deterministic schedule.
func (f *FaultConfig) Wrap(conn net.Conn) net.Conn {
	faultMu.Lock()
	idx := f.wrapped
	f.wrapped++
	faultMu.Unlock()
	return &FaultyConn{
		Conn: conn,
		cfg:  *f,
		rng:  rand.New(rand.NewSource(f.Seed + int64(idx)*7919)),
	}
}

// Dialer wraps a dial function so every connection it produces carries
// the fault schedule — the natural way to feed a ResilientClient a
// lossy link.
func (f *FaultConfig) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return f.Wrap(conn), nil
	}
}

// faultMu guards FaultConfig.wrapped across all configs.
var faultMu sync.Mutex

// FaultyConn injects the configured faults into a net.Conn. Safe for the
// one-reader/one-writer pattern the protocol uses.
type FaultyConn struct {
	net.Conn
	cfg FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	ops    int
	closed bool
}

// decide draws the fault verdicts for one op under the lock.
func (fc *FaultyConn) decide(isWrite bool) (verdict struct {
	reset, drop, partial, corrupt, delay bool
}) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.ops++
	if fc.cfg.FailAfterOps > 0 && fc.ops > fc.cfg.FailAfterOps {
		verdict.reset = true
		return
	}
	roll := func(p float64) bool { return p > 0 && fc.rng.Float64() < p }
	verdict.reset = roll(fc.cfg.Reset)
	verdict.delay = roll(fc.cfg.DelayProb)
	if isWrite {
		verdict.drop = roll(fc.cfg.DropWrite)
		verdict.partial = roll(fc.cfg.PartialWrite)
		verdict.corrupt = roll(fc.cfg.CorruptWrite)
	} else {
		verdict.corrupt = roll(fc.cfg.CorruptRead)
	}
	return
}

func (fc *FaultyConn) Write(b []byte) (int, error) {
	v := fc.decide(true)
	if v.delay && fc.cfg.Delay > 0 {
		time.Sleep(fc.cfg.Delay)
	}
	if v.reset {
		fc.Conn.Close()
		return 0, ErrInjectedReset
	}
	if v.drop {
		// Lie: claim success, send nothing. The peer's deadline machinery
		// has to notice.
		return len(b), nil
	}
	if v.partial {
		n := len(b) / 2
		if n > 0 {
			if _, err := fc.Conn.Write(b[:n]); err != nil {
				return 0, err
			}
		}
		return n, ErrInjectedPartialWrite
	}
	if v.corrupt && len(b) > 0 {
		fc.mu.Lock()
		i := fc.rng.Intn(len(b))
		fc.mu.Unlock()
		mangled := make([]byte, len(b))
		copy(mangled, b)
		mangled[i] ^= 0xff
		return fc.Conn.Write(mangled)
	}
	return fc.Conn.Write(b)
}

func (fc *FaultyConn) Read(b []byte) (int, error) {
	v := fc.decide(false)
	if v.delay && fc.cfg.Delay > 0 {
		time.Sleep(fc.cfg.Delay)
	}
	if v.reset {
		fc.Conn.Close()
		return 0, ErrInjectedReset
	}
	n, err := fc.Conn.Read(b)
	if v.corrupt && n > 0 {
		fc.mu.Lock()
		i := fc.rng.Intn(n)
		fc.mu.Unlock()
		b[i] ^= 0xff
	}
	return n, err
}

var _ net.Conn = (*FaultyConn)(nil)
