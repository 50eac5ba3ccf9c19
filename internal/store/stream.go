package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/engine"
)

// This file is the update frame, the one unit of the write path. A WAL
// segment and a binary ingest stream are both an 8-byte magic followed by
// frames; AppendFrame is the only code that writes one (the file store
// into a segment, clients onto a connection) and FrameScanner the only
// code that reads one — so a captured stream body with its magic swapped
// is literally a replayable WAL segment.
//
//	[8]  magic: "MONESTB1" (stream) or "MONESTW1" (WAL segment)
//	then frames:
//	  [4] payload length N
//	  [4] CRC32(payload)
//	  [N] payload = [4] count, then count × { [4] instance, [8] key,
//	      [8] weight bits }
//
// There is no trailer: a clean EOF on a frame boundary ends the input. A
// torn frame, an out-of-bounds length, a CRC mismatch or a count that
// disagrees with the length is an error; a live connection surfaces it
// to the sender, WAL recovery truncates the segment at the last good
// boundary (FrameScanner.Offset).
const (
	// StreamMagic opens every binary ingest stream; it differs from the WAL
	// magic so a capture and a segment cannot be confused.
	StreamMagic = "MONESTB1"

	// MaxStreamFrameBytes bounds one frame's declared payload (1 MiB,
	// ~52k updates — far above any sane batch). A larger declared length is
	// a protocol error, not a buffer worth allocating.
	MaxStreamFrameBytes = 1 << 20

	// StreamContentType is the media type of a binary ingest stream.
	StreamContentType = "application/x-monest-stream"
)

// AppendStreamHeader appends the stream magic. Writers send it once,
// before the first frame.
func AppendStreamHeader(dst []byte) []byte {
	return append(dst, StreamMagic...)
}

// AppendFrame appends one framed update batch (length, CRC, payload).
func AppendFrame(dst []byte, batch []engine.Update) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(batch)))
	for _, u := range batch {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(u.Instance))
		dst = binary.LittleEndian.AppendUint64(dst, u.Key)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(u.Weight))
	}
	payload := dst[head+8:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// FrameScanner reads frames incrementally; a stream body and a WAL
// segment differ only in the magic it expects and the payload bound. The
// frame buffer and the decoded batch slice are owned by the scanner and
// overwritten by the next call, so a steady-state reader allocates
// nothing per frame. Not safe for concurrent use.
type FrameScanner struct {
	r          *bufio.Reader
	magic      string
	maxPayload uint32
	// head is the persistent 8-byte header scratch: a stack array would
	// escape through the io.ReadFull interface call, costing an allocation
	// per frame.
	head   [8]byte
	buf    []byte
	batch  []engine.Update
	frames uint64
	// off counts the bytes consumed through the last good boundary: 0
	// until the magic verified, then the end of the last valid frame.
	off int64
}

// NewFrameScanner wraps a stream body. The magic header is consumed and
// verified on the first Next call.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return newFrameScanner(r, StreamMagic, MaxStreamFrameBytes)
}

func newFrameScanner(r io.Reader, magic string, maxPayload uint32) *FrameScanner {
	br := scanReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return &FrameScanner{r: br, magic: magic, maxPayload: maxPayload}
}

// scanReaders recycles the scanners' 64 KiB read buffers (see Release): a
// cluster coordinator routes every frame share as its own short
// /v1/stream request, and a fresh buffer per request was most of a node's
// write-path garbage — enough to pull its GC cycles into routed writes.
var scanReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// Release hands the scanner's read buffer back for reuse by a later
// scanner. The scanner must not be used afterwards; one never released is
// simply garbage-collected.
func (s *FrameScanner) Release() {
	s.r.Reset(nil)
	scanReaders.Put(s.r)
	s.r = nil
}

// Frames reports how many frames have been decoded so far.
func (s *FrameScanner) Frames() uint64 { return s.frames }

// Offset is the byte offset just past the last valid frame (past the
// magic before any frame; 0 when the magic itself was missing or wrong).
// Everything before it re-scans cleanly.
func (s *FrameScanner) Offset() int64 { return s.off }

// Next returns the next decoded update batch. It returns io.EOF exactly
// when the input ends cleanly on a frame boundary; any mid-frame EOF,
// out-of-bounds length, CRC mismatch or malformed payload is a non-EOF
// error. The returned slice is valid only until the next call.
func (s *FrameScanner) Next() ([]engine.Update, error) {
	if s.off == 0 {
		if _, err := io.ReadFull(s.r, s.head[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("store: stream ended before the %q header", s.magic)
			}
			return nil, fmt.Errorf("store: reading stream header: %w", err)
		}
		if string(s.head[:]) != s.magic {
			return nil, fmt.Errorf("store: bad stream magic %q (want %q)", s.head, s.magic)
		}
		s.off = int64(len(s.magic))
	}
	if _, err := io.ReadFull(s.r, s.head[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF // clean end: EOF exactly on a frame boundary
		}
		return nil, fmt.Errorf("store: torn frame header: %w", err)
	}
	plen := binary.LittleEndian.Uint32(s.head[:4])
	crc := binary.LittleEndian.Uint32(s.head[4:])
	if plen < 4 || plen > s.maxPayload {
		return nil, fmt.Errorf("store: frame declares %d payload bytes (want 4..%d)", plen, s.maxPayload)
	}
	if cap(s.buf) < int(plen) {
		s.buf = make([]byte, plen)
	}
	payload := s.buf[:plen]
	if _, err := io.ReadFull(s.r, payload); err != nil {
		return nil, fmt.Errorf("store: torn frame payload (%d bytes declared): %w", plen, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errors.New("store: frame checksum mismatch")
	}
	n := binary.LittleEndian.Uint32(payload)
	if uint64(plen) != 4+uint64(n)*updateBytes {
		return nil, fmt.Errorf("store: frame declares %d updates in %d payload bytes", n, plen)
	}
	if cap(s.batch) < int(n) {
		s.batch = make([]engine.Update, n)
	}
	s.batch = s.batch[:n]
	for i, body := 0, payload[4:]; i < int(n); i, body = i+1, body[updateBytes:] {
		s.batch[i] = engine.Update{
			Instance: int(binary.LittleEndian.Uint32(body)),
			Key:      binary.LittleEndian.Uint64(body[4:]),
			Weight:   math.Float64frombits(binary.LittleEndian.Uint64(body[12:])),
		}
	}
	s.frames++
	s.off += 8 + int64(plen)
	return s.batch, nil
}
