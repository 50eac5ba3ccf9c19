package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/engine"
)

// Binary formats. Everything is little-endian and length-prefixed; every
// payload carries a CRC32 (IEEE) so torn writes and bit rot are detected,
// never silently replayed.
//
// WAL segment file: [8] magic "MONESTW1", then update frames (stream.go),
// one per appended batch.
//
// State artifact (export format and checkpoint body):
//
//	[8]  magic "MONESTS1"
//	[4]  payload length N
//	[4]  CRC32(payload)
//	[N]  payload:
//	       [2] format version (1)
//	       [4] instances  [4] k  [4] shards
//	       [8] engine version  [8] ingests
//	       2 × [8] seed-fingerprint bits
//	       [8] key count, then keys, then masks (keys × maskWords words)
//	       per instance: [8] entry count, then { [8] key, [8] weight bits }
//
// Checkpoint file: a header of [8] magic "MONESTK2", [8] first WAL
// segment to replay, [8] base and [4] CRC32 of the 24 bytes before it,
// then a state artifact. Base 0 marks a full checkpoint; otherwise the
// artifact holds no keys or masks and base numbers the full checkpoint
// whose registry it shares. A "MONESTK1" file is [8] magic, [8] first
// WAL segment, then a full state artifact, with no header checksum.
const (
	walMagic    = "MONESTW1"
	stateMagic  = "MONESTS1"
	ckptMagic   = "MONESTK2"
	ckptMagicV1 = "MONESTK1"

	ckptHeaderBytes = 8 + 8 + 8 + 4

	stateFormat = 1

	// maxRecordBytes bounds a WAL record's declared payload length; a
	// longer length is corruption, not a record worth allocating for.
	maxRecordBytes = 64 << 20

	updateBytes = 4 + 8 + 8
)

// EncodeState serializes a dumped engine state as a self-contained,
// integrity-checked artifact — the /v1/export wire format and the body of
// every checkpoint. Equal states encode to equal bytes.
func EncodeState(st *engine.State) []byte {
	return appendState(make([]byte, 0, stateSize(st)), st)
}

// stateSize is the encoded length of st: header plus payload.
func stateSize(st *engine.State) int {
	mw := (st.Instances + 63) / 64
	size := 16 + 2 + 3*4 + 2*8 + 2*8 + 8 + len(st.Keys)*8 + len(st.Keys)*mw*8
	for _, ents := range st.Entries {
		size += 8 + len(ents)*16
	}
	return size
}

// appendState appends st's artifact to dst: the payload is written once,
// behind a header whose length and CRC are filled in place afterwards.
func appendState(dst []byte, st *engine.State) []byte {
	at := len(dst)
	dst = append(dst, stateMagic...)
	dst = append(dst, make([]byte, 8)...) // payload length and CRC, below
	dst = binary.LittleEndian.AppendUint16(dst, stateFormat)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Instances))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.K))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(st.Shards))
	dst = binary.LittleEndian.AppendUint64(dst, st.Version)
	dst = binary.LittleEndian.AppendUint64(dst, st.Ingests)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.SeedCheck[0]))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.SeedCheck[1]))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(st.Keys)))
	for _, k := range st.Keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	for _, m := range st.Masks {
		dst = binary.LittleEndian.AppendUint64(dst, m)
	}
	for _, ents := range st.Entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(ents)))
		for _, en := range ents {
			dst = binary.LittleEndian.AppendUint64(dst, en.Key)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(en.Weight))
		}
	}
	payload := dst[at+16:]
	binary.LittleEndian.PutUint32(dst[at+8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+12:], crc32.ChecksumIEEE(payload))
	return dst
}

// appendCheckpointHeader appends a checkpoint header naming replay
// horizon first and base (0 for a full checkpoint) to dst.
func appendCheckpointHeader(dst []byte, first, base uint64) []byte {
	at := len(dst)
	dst = append(dst, ckptMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, first)
	dst = binary.LittleEndian.AppendUint64(dst, base)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[at:]))
}

// stateReader walks an encoded payload with bounds checking.
type stateReader struct {
	b   []byte
	off int
}

func (r *stateReader) need(n int) error {
	if len(r.b)-r.off < n {
		return fmt.Errorf("store: state artifact truncated at byte %d (need %d more)", r.off, n)
	}
	return nil
}

func (r *stateReader) u16() uint16 {
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *stateReader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *stateReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// statePayload checks a state artifact's bytes — magic, declared length
// and payload CRC — and returns the payload DecodeState parses.
func statePayload(data []byte) ([]byte, error) {
	if len(data) < 16 || string(data[:8]) != stateMagic {
		return nil, fmt.Errorf("store: not a state artifact (bad magic)")
	}
	plen := binary.LittleEndian.Uint32(data[8:])
	if uint64(len(data)) != 16+uint64(plen) {
		return nil, fmt.Errorf("store: state artifact is %d bytes, header declares %d", len(data), 16+plen)
	}
	payload := data[16:]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(data[12:]) {
		return nil, fmt.Errorf("store: state artifact checksum mismatch")
	}
	return payload, nil
}

// DecodeState parses an EncodeState artifact, verifying magic, length and
// checksum. Structural validity is checked here; semantic compatibility
// (instances, k, seed fingerprint) is the engine's RestoreState/MergeState
// contract.
func DecodeState(data []byte) (*engine.State, error) {
	payload, err := statePayload(data)
	if err != nil {
		return nil, err
	}
	r := &stateReader{b: payload}
	if err := r.need(2 + 3*4 + 2*8 + 2*8 + 8); err != nil {
		return nil, err
	}
	if f := r.u16(); f != stateFormat {
		return nil, fmt.Errorf("store: state format %d not supported (want %d)", f, stateFormat)
	}
	st := &engine.State{
		Instances: int(r.u32()),
		K:         int(r.u32()),
		Shards:    int(r.u32()),
	}
	st.Version = r.u64()
	st.Ingests = r.u64()
	st.SeedCheck[0] = math.Float64frombits(r.u64())
	st.SeedCheck[1] = math.Float64frombits(r.u64())
	if st.Instances < 1 || st.K < 1 {
		return nil, fmt.Errorf("store: state has instances=%d k=%d", st.Instances, st.K)
	}
	nkeys := r.u64()
	mw := (st.Instances + 63) / 64
	// Bound counts by the payload size before converting to int: a
	// corrupt huge count must fail, not overflow the size arithmetic.
	if nkeys > uint64(len(payload))/8 {
		return nil, fmt.Errorf("store: state declares %d keys in %d payload bytes", nkeys, len(payload))
	}
	if err := r.need(int(nkeys) * (8 + mw*8)); err != nil {
		return nil, err
	}
	st.Keys = make([]uint64, nkeys)
	for i := range st.Keys {
		st.Keys[i] = r.u64()
	}
	st.Masks = make([]uint64, int(nkeys)*mw)
	for i := range st.Masks {
		st.Masks[i] = r.u64()
	}
	st.Entries = make([][]engine.StateEntry, st.Instances)
	for i := range st.Entries {
		if err := r.need(8); err != nil {
			return nil, err
		}
		n := r.u64()
		if n > uint64(len(payload))/16 {
			return nil, fmt.Errorf("store: state declares %d entries in %d payload bytes", n, len(payload))
		}
		if err := r.need(int(n) * 16); err != nil {
			return nil, err
		}
		ents := make([]engine.StateEntry, n)
		for j := range ents {
			ents[j] = engine.StateEntry{Key: r.u64(), Weight: math.Float64frombits(r.u64())}
		}
		st.Entries[i] = ents
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes after state payload", len(payload)-r.off)
	}
	return st, nil
}
