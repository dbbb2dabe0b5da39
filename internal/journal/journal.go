// Package journal implements an append-only record log with crash-consistent
// framing. Each record is written as one buffer — uvarint payload length,
// 4-byte little-endian CRC-32 (IEEE) of the payload, then the payload — so a
// process killed mid-append leaves at most one torn record at the tail. The
// scanner recovers the longest valid prefix and reports whether the log was
// cut short, which is what lets a killed sweep resume from its last durable
// row and a killed serve session recover its acknowledged batches.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxRecord bounds a single record's payload. A length prefix above this is
// treated as tail corruption rather than an allocation request: a torn or
// overwritten length byte must not make the scanner try to read gigabytes.
const MaxRecord = 64 << 20

// Writer appends framed records to an underlying stream.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer appending to w. The caller owns durability
// (flushing or syncing w) and serialization of Append calls.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append frames payload and writes it in a single Write call, so the
// underlying file sees either the whole frame or a prefix of it — never an
// interleaving with another record.
func (jw *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	jw.buf = jw.buf[:0]
	jw.buf = binary.AppendUvarint(jw.buf, uint64(len(payload)))
	jw.buf = binary.LittleEndian.AppendUint32(jw.buf, crc32.ChecksumIEEE(payload))
	jw.buf = append(jw.buf, payload...)
	if _, err := jw.w.Write(jw.buf); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	return nil
}

// Scanner reads framed records back, stopping at the first sign of a torn
// tail. It never fails on truncation or corruption — those end the scan with
// Truncated() set — so loaders can always use the valid prefix.
type Scanner struct {
	r         *bufio.Reader
	rec       []byte
	off       int64 // bytes consumed by fully valid records
	pending   int64 // bytes consumed by the record currently being parsed
	truncated bool
	err       error
	done      bool
}

// NewScanner returns a Scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReader(r)}
}

// Scan advances to the next record. It returns false at a clean end of log,
// at a torn/corrupt tail (Truncated), or on a real read error (Err).
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	s.pending = 0

	// Read the length varint byte-by-byte: EOF before the first byte is a
	// clean end of log; EOF mid-varint is a torn frame.
	var n uint64
	for shift := uint(0); ; shift += 7 {
		b, err := s.r.ReadByte()
		if err != nil {
			if err == io.EOF {
				s.truncated = shift > 0
			} else {
				s.err = err
			}
			s.done = true
			return false
		}
		s.pending++
		if shift > 63 {
			s.stopCorrupt()
			return false
		}
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if n > MaxRecord {
		s.stopCorrupt()
		return false
	}

	frame := make([]byte, 4+n)
	read, err := io.ReadFull(s.r, frame)
	s.pending += int64(read)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			s.truncated = true
		} else {
			s.err = err
		}
		s.done = true
		return false
	}
	payload := frame[4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[:4]) {
		s.stopCorrupt()
		return false
	}
	s.rec = payload
	s.off += s.pending
	s.pending = 0
	return true
}

func (s *Scanner) stopCorrupt() {
	s.truncated = true
	s.done = true
}

// Bytes returns the current record's payload. The slice is owned by the
// caller (each record is freshly allocated).
func (s *Scanner) Bytes() []byte { return s.rec }

// Offset returns the byte length of the valid prefix — the position to
// truncate a journal file to before appending new records after a crash.
func (s *Scanner) Offset() int64 { return s.off }

// Truncated reports whether the scan ended at a torn or corrupt tail rather
// than a clean record boundary.
func (s *Scanner) Truncated() bool { return s.truncated }

// Err returns the first real read error, if any. Truncation and corruption
// are not errors.
func (s *Scanner) Err() error { return s.err }
