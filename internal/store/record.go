package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/drdp/drdp/internal/wire"
)

// frameHeaderBytes is the [length][CRC] prefix of every wire frame.
const frameHeaderBytes = 8

// walkBufBytes sizes the read buffer between a file and the frame walk.
const walkBufBytes = 64 << 10

// walkFrames reads f's frames from its start up to size, handing each
// CRC-verified payload to visit (valid until the next frame), and
// returns the offset just past the last frame visit accepted. It stops
// at the first frame that is torn, corrupt, longer than the bytes left
// before size — no length prefix is trusted beyond them, so a corrupt
// one allocates nothing — or that visit refuses; err says why, and is
// nil when every frame up to size was accepted. The log replay, the
// verdict replay, the snapshot load and every scrub check walk their
// files with it.
func walkFrames(f File, size int64, visit func(payload []byte) error) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(io.LimitReader(f, size), walkBufBytes)
	var buf []byte
	var off int64
	for off < size {
		payload, err := wire.ReadFrame(r, size-off-frameHeaderBytes, buf)
		if err != nil {
			return off, err
		}
		if err := visit(payload); err != nil {
			return off, err
		}
		buf = payload
		off += frameHeaderBytes + int64(len(payload))
	}
	return off, nil
}

// decodeRecord decodes a frame's payload into rec, which must be of
// kind want.
func decodeRecord(payload []byte, want wire.RecordKind, rec *wire.Record) error {
	if err := wire.DecodeRecord(payload, rec); err != nil {
		return err
	}
	if rec.Kind != want {
		return fmt.Errorf("store: record of kind %d where kind %d belongs", rec.Kind, want)
	}
	return nil
}

// decodeFrame checks that fr, a replicated or repair-pulled frame, is
// exactly one intact task record carrying fr.Seq, and decodes it into
// rec.
func decodeFrame(fr wire.Frame, rec *wire.Record) error {
	payload, err := wire.Unframe(fr.Bytes)
	if err != nil {
		return err
	}
	if err := decodeRecord(payload, wire.TaskRecord, rec); err != nil {
		return err
	}
	if rec.Seq != fr.Seq {
		return fmt.Errorf("frame labeled %d carries seq %d", fr.Seq, rec.Seq)
	}
	return nil
}

// errLegacyLayout refuses a directory written by builds that kept the
// store as gob records: a snapshot.gob snapshot, or logs whose frames
// carry a big-endian length. Open reads none of it and changes none of
// its bytes; move the directory aside to start cold.
var errLegacyLayout = errors.New("store: directory holds the retired gob layout (snapshot.gob, big-endian log frames); move it aside to start cold")

// legacySnapshotName is the snapshot file of the retired gob layout.
const legacySnapshotName = "snapshot.gob"

// legacyFrame reports whether f, a log that failed its first frame,
// opens with a frame of the retired layout: a non-zero big-endian
// length (no gob value is empty) that fits the file and a CRC that
// matches the bytes it spans. A corrupt new-format frame passes both by
// chance once in 2^32.
func legacyFrame(f File, size int64) bool {
	var hdr [frameHeaderBytes]byte
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return false
	}
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false
	}
	n := int64(binary.BigEndian.Uint32(hdr[0:4]))
	if n == 0 || n > size-frameHeaderBytes {
		return false
	}
	crc := crc32.NewIEEE()
	if _, err := io.CopyN(crc, f, n); err != nil {
		return false
	}
	return crc.Sum32() == binary.BigEndian.Uint32(hdr[4:8])
}
