package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/seq"
	"repro/internal/vfs"
)

// A checkpoint segment is one generation of the database serialized to a
// single immutable file: the durable base state that the WAL tail replays
// on top of. Segments are written atomically (temp file + fsync + rename
// + directory fsync), so a segment file either exists complete or not at
// all — recovery never sees a half-written checkpoint.
//
// File layout (little-endian):
//
//	offset  size  field
//	0       4     magic "GSEG"
//	4       4     format version (segmentVersion)
//	8       8     generation
//	16      8     payload length n
//	24      4     CRC32C over bytes [0,24) and the payload
//	28      n     payload: seq.AppendDB encoding of the database
//
// The CRC covers the header too, so a bit flip in the generation or
// length is caught, not just payload damage.

const (
	segmentMagic      = "GSEG"
	segmentVersion    = 1
	segmentHeaderSize = 28
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeSegment serializes db as a complete segment image for gen.
func encodeSegment(gen uint64, db *seq.DB) []byte {
	buf := make([]byte, segmentHeaderSize, segmentHeaderSize+seq.EncodedDBSize(db))
	buf = seq.AppendDB(buf, db)
	payload := buf[segmentHeaderSize:]
	copy(buf[0:4], segmentMagic)
	binary.LittleEndian.PutUint32(buf[4:8], segmentVersion)
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(len(payload)))
	crc := crc32.Update(0, segCRC, buf[0:24])
	crc = crc32.Update(crc, segCRC, payload)
	binary.LittleEndian.PutUint32(buf[24:28], crc)
	return buf
}

// decodeSegment parses and validates a complete segment image.
func decodeSegment(data []byte) (gen uint64, db *seq.DB, err error) {
	if len(data) < segmentHeaderSize {
		return 0, nil, fmt.Errorf("store: segment of %d bytes is shorter than the header", len(data))
	}
	if string(data[0:4]) != segmentMagic {
		return 0, nil, errors.New("store: bad segment magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segmentVersion {
		return 0, nil, fmt.Errorf("store: unsupported segment version %d (max %d)", v, segmentVersion)
	}
	gen = binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint64(data[16:24])
	if n != uint64(len(data)-segmentHeaderSize) {
		return 0, nil, fmt.Errorf("store: segment payload length %d does not match %d file bytes", n, len(data)-segmentHeaderSize)
	}
	payload := data[segmentHeaderSize:]
	crc := crc32.Update(0, segCRC, data[0:24])
	crc = crc32.Update(crc, segCRC, payload)
	if crc != binary.LittleEndian.Uint32(data[24:28]) {
		return 0, nil, errors.New("store: segment checksum mismatch")
	}
	db, err = seq.DecodeDB(payload)
	if err != nil {
		return 0, nil, fmt.Errorf("store: segment payload: %w", err)
	}
	if gen == 0 {
		return 0, nil, errors.New("store: segment generation 0 is invalid")
	}
	return gen, db, nil
}

// writeSegmentTemp writes the checkpoint for gen to a temp file in dir
// (so the eventual rename never crosses filesystems) and fsyncs it. The
// bytes are durable but the checkpoint is not yet visible to recovery —
// install it with installSegment, or leave it to be swept.
func writeSegmentTemp(fsys vfs.FS, dir string, gen uint64, data []byte) (string, error) {
	tmp, err := vfs.WriteTemp(fsys, dir, segmentFileName(gen)+".tmp", data)
	if err != nil {
		return "", fmt.Errorf("store: write segment: %w", err)
	}
	return tmp, nil
}

// installSegment atomically publishes a temp segment written by
// writeSegmentTemp as segment-<gen>.seg and fsyncs the directory. On
// failure the temp file is removed.
func installSegment(fsys vfs.FS, tmpPath, dir string, gen uint64) error {
	if err := vfs.Install(fsys, tmpPath, filepath.Join(dir, segmentFileName(gen))); err != nil {
		return fmt.Errorf("store: publish segment: %w", err)
	}
	return nil
}

// writeSegment atomically writes the segment image data for gen into
// dir: temp file + fsync + rename + directory fsync, so a segment file
// either exists complete or not at all.
func writeSegment(fsys vfs.FS, dir string, gen uint64, data []byte) error {
	tmp, err := writeSegmentTemp(fsys, dir, gen, data)
	if err != nil {
		return err
	}
	return installSegment(fsys, tmp, dir, gen)
}

// readSegment loads and validates the segment at path.
func readSegment(fsys vfs.FS, path string) (gen uint64, db *seq.DB, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("store: read segment: %w", err)
	}
	gen, db, err = decodeSegment(data)
	if err != nil {
		return 0, nil, fmt.Errorf("store: segment %s: %w", filepath.Base(path), err)
	}
	return gen, db, nil
}

// syncDir fsyncs a directory so a just-renamed or just-created entry is
// durable.
func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
