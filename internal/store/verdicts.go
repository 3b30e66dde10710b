package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/drdp/drdp/internal/dpprior"
)

const verdictLogName = "verdicts.log"

// verdictRecord is one framed entry of the verdict sidecar: the
// admission judge's decision for the task appended at Seq. Later records
// for the same Seq override earlier ones on replay.
type verdictRecord struct {
	Seq         uint64
	Quarantined bool
}

// loadVerdicts opens the verdict sidecar and replays it over the
// verdicts recovered from the snapshot. A torn or corrupt tail is
// truncated like the task log's; a verdict for a sequence number the
// store has never issued is dropped (it cannot refer to a real task).
func (s *Store) loadVerdicts() error {
	path := filepath.Join(s.opts.Dir, verdictLogName)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open verdict log: %w", err)
	}
	s.verdictF = f

	offset := int64(0)
	for {
		var rec verdictRecord
		n, err := readPayload(f, s.opts.MaxRecordBytes, &rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			end, serr := f.Seek(0, io.SeekEnd)
			if serr != nil {
				return fmt.Errorf("store: seek verdict log: %w", serr)
			}
			s.recovery.Truncated = true
			s.recovery.TruncatedBytes += end - offset
			s.verdictsTruncated = true
			if terr := f.Truncate(offset); terr != nil {
				return fmt.Errorf("store: truncate verdict log tail: %w", terr)
			}
			break
		}
		offset += n
		if rec.Seq == 0 || rec.Seq > s.version {
			continue
		}
		s.verdicts[rec.Seq] = rec.Quarantined
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek verdict log end: %w", err)
	}
	s.verdictSize = offset
	return nil
}

// SetVerdicts durably records admission verdicts (true = quarantined)
// keyed by the sequence number that appended each task. Verdicts for
// sequence numbers the store has never issued are rejected. Writes are
// ordered by sequence number so the on-disk log is deterministic for a
// given verdict set.
func (s *Store) SetVerdicts(verdicts map[uint64]bool) error {
	if len(verdicts) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.poisoned != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	seqs := make([]uint64, 0, len(verdicts))
	for seq := range verdicts {
		if seq == 0 || seq > s.version {
			return fmt.Errorf("store: verdict for unknown seq %d (version %d)", seq, s.version)
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if s.verdictF != nil {
		var frames []byte
		for _, seq := range seqs {
			frame, err := encodePayload(verdictRecord{Seq: seq, Quarantined: verdicts[seq]})
			if err != nil {
				return err
			}
			frames = append(frames, frame...)
		}
		if _, err := s.verdictF.Write(frames); err != nil {
			s.poisonLocked(err)
			return fmt.Errorf("store: append verdicts: %w", err)
		}
		if !s.opts.NoSync {
			if err := s.verdictF.Sync(); err != nil {
				s.poisonLocked(err)
				return fmt.Errorf("store: sync verdict log: %w", err)
			}
		}
		s.verdictSize += int64(len(frames))
	}
	for _, seq := range seqs {
		s.verdicts[seq] = verdicts[seq]
	}
	return nil
}

// sortedVerdictsLocked returns the verdict map as records in ascending
// seq order: the deterministic form every rewrite persists. Caller
// holds s.mu.
func (s *Store) sortedVerdictsLocked() []verdictRecord {
	out := make([]verdictRecord, 0, len(s.verdicts))
	for seq, q := range s.verdicts {
		out = append(out, verdictRecord{Seq: seq, Quarantined: q})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Verdicts returns a copy of the recorded admission verdicts
// (seq → quarantined).
func (s *Store) Verdicts() map[uint64]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]bool, len(s.verdicts))
	for seq, q := range s.verdicts {
		out[seq] = q
	}
	return out
}

// ViewRecords is View plus the per-task sequence numbers (the key space
// of Verdicts). Both slices are immutable snapshots; callers must not
// modify them.
func (s *Store) ViewRecords() ([]dpprior.TaskPosterior, []uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasks[:len(s.tasks):len(s.tasks)], s.seqs[:len(s.seqs):len(s.seqs)], s.version
}
