package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/sampling"
)

// FuzzDecodeState hammers the one decoder every state artifact passes
// through — disk checkpoints, /v1/import, /v1/export round-trips and
// the cluster's /v1/export?since= fetches. The contract under
// arbitrary bytes: reject with an error or accept, never panic; and an
// accepted artifact must survive its own re-encode (the decoder may not
// hand the engine a state the encoder cannot represent).
func FuzzDecodeState(f *testing.F) {
	eng := fuzzEngine(f)
	valid := EncodeState(eng.DumpState())
	// The compact cut a coordinator fetches, with and without registry.
	sketch, reg := eng.SketchState(0)
	f.Add(EncodeState(sketch))
	entriesOnly, _ := eng.SketchState(reg)
	f.Add(EncodeState(entriesOnly))

	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated payload
	f.Add(valid[:12])           // truncated header
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(crcFlip)
	lenLie := append([]byte(nil), valid...)
	lenLie[8] ^= 0xFF // declared payload length != actual
	f.Add(lenLie)
	f.Add([]byte{})
	f.Add([]byte(stateMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			return // rejection is the expected outcome for junk
		}
		re := EncodeState(st)
		if _, err := DecodeState(re); err != nil {
			t.Fatalf("re-encode of accepted artifact rejected: %v", err)
		}
	})
}

// fuzzEngine is a small engine whose states seed the state fuzzers.
func fuzzEngine(f *testing.F) *engine.Engine {
	eng, err := engine.New(engine.Config{Instances: 2, K: 4, Shards: 2, Hash: sampling.NewSeedHash(5)})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := eng.Ingest(i%2, uint64(i%16), 1+float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	return eng
}

// FuzzReadCheckpoint hammers readCheckpoint, which every recovery runs
// on every checkpoint file, over whole files: a full and a sketch-only
// MONESTK2 file, a MONESTK1 file, and each cut short, with a body or a
// horizon byte flipped. The contract under arbitrary bytes: never panic;
// a file the check-only read (recovery's for fallbacks) accepts has a
// header CRC that matches (a MONESTK1 file has none), the horizon and
// base its header holds, and a state whose magic, length and CRC check;
// a file the decoding read accepts passes the check-only read too, and
// has a body that DecodeState accepts.
func FuzzReadCheckpoint(f *testing.F) {
	eng := fuzzEngine(f)
	st, reg := eng.SketchState(0)
	sketch, _ := eng.SketchState(reg)
	full := appendState(appendCheckpointHeader(nil, 3, 0), st)
	sketchOnly := appendState(appendCheckpointHeader(nil, 4, 3), sketch)
	v1 := append(binary.LittleEndian.AppendUint64([]byte(ckptMagicV1), 2), EncodeState(st)...)
	for _, file := range [][]byte{full, sketchOnly, v1} {
		f.Add(file)
		f.Add(file[:len(file)/2]) // truncated body
		f.Add(file[:12])          // truncated header
		for _, at := range []int{len(file) - 1, 9} {
			flip := bytes.Clone(file)
			flip[at] ^= 0x01
			f.Add(flip)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "checkpoint-00000001.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, checked := readCheckpoint(path, true), readCheckpoint(path, false)
		if c.err == nil && checked.err != nil {
			t.Fatalf("the check-only read rejects a checkpoint the decoding read accepts: %v", checked.err)
		}
		if checked.err != nil {
			return // rejection is the expected outcome for junk
		}
		body, base := data[16:], uint64(0)
		switch string(data[:8]) {
		case ckptMagic:
			if crc32.ChecksumIEEE(data[:ckptHeaderBytes-4]) != binary.LittleEndian.Uint32(data[ckptHeaderBytes-4:]) {
				t.Fatal("accepted a checkpoint whose header CRC does not match")
			}
			body, base = data[ckptHeaderBytes:], binary.LittleEndian.Uint64(data[16:])
		case ckptMagicV1:
		default:
			t.Fatalf("accepted a checkpoint with magic %q", data[:8])
		}
		if len(body) < 16 || string(body[:8]) != stateMagic || uint64(len(body)) != 16+uint64(binary.LittleEndian.Uint32(body[8:])) ||
			crc32.ChecksumIEEE(body[16:]) != binary.LittleEndian.Uint32(body[12:]) {
			t.Fatal("accepted a checkpoint whose state magic, length or CRC does not check")
		}
		reads := []*ckptFile{checked}
		if c.err == nil { // else a body past its CRC that does not parse: only decoding sees it
			if _, err := DecodeState(body); err != nil {
				t.Fatalf("accepted a checkpoint whose body DecodeState rejects: %v", err)
			}
			reads = append(reads, c)
		}
		for _, read := range reads {
			if first := binary.LittleEndian.Uint64(data[8:]); read.first != first || read.base != base || read.bytes != len(data) {
				t.Fatalf("read horizon %d, base %d, %d bytes; the file holds %d, %d, %d", read.first, read.base, read.bytes, first, base, len(data))
			}
		}
	})
}

// FuzzFrameScanner hammers the one frame reader — every /v1/stream body
// and every WAL segment passes through it — in both of its
// configurations. The contract under arbitrary bytes: never panic, and
// Offset() always lands on a boundary from which the prefix re-scans
// cleanly to EOF with the same frames (the property WAL recovery's
// truncate-at-Offset relies on).
func FuzzFrameScanner(f *testing.F) {
	batches := streamBatches(3, 4)
	stream := encodeStream(batches)
	wal := append([]byte(walMagic), stream[len(StreamMagic):]...)
	mutated := func(mutate func(b []byte)) []byte {
		b := bytes.Clone(stream)
		mutate(b)
		return b
	}

	f.Add(stream, false)
	f.Add(wal, true)
	f.Add(stream[:5], false)                                   // truncated header
	f.Add(wal[:len(wal)-5], true)                              // torn payload
	f.Add(stream[:len(stream)-5], false)                       // torn payload
	f.Add(mutated(func(b []byte) { b[len(b)-1] ^= 1 }), false) // CRC flip
	f.Add(mutated(func(b []byte) {                             // count lie: one more update than the bytes hold
		binary.LittleEndian.PutUint32(b[16:], binary.LittleEndian.Uint32(b[16:])+1)
	}), false)
	f.Add(mutated(func(b []byte) { // length over the bound
		binary.LittleEndian.PutUint32(b[8:], MaxStreamFrameBytes+1)
	}), false)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, data []byte, asWAL bool) {
		open := func(b []byte) *FrameScanner {
			if asWAL {
				return newFrameScanner(bytes.NewReader(b), walMagic, maxRecordBytes)
			}
			return NewFrameScanner(bytes.NewReader(b))
		}
		scan := func(sc *FrameScanner) error {
			for {
				if _, err := sc.Next(); err != nil {
					return err
				}
			}
		}
		sc := open(data)
		err := scan(sc)
		off := sc.Offset()
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("Offset() = %d outside the %d input bytes", off, len(data))
		}
		if err == io.EOF && off != int64(len(data)) {
			t.Fatalf("clean EOF at offset %d of %d bytes", off, len(data))
		}
		if off == 0 {
			if sc.Frames() != 0 {
				t.Fatalf("%d frames decoded before a valid magic", sc.Frames())
			}
			return
		}
		again := open(data[:off])
		if err := scan(again); err != io.EOF {
			t.Fatalf("prefix up to Offset() = %d re-scans to %v, want clean EOF", off, err)
		}
		if again.Frames() != sc.Frames() || again.Offset() != off {
			t.Fatalf("prefix re-scan: %d frames to offset %d, want %d frames to %d",
				again.Frames(), again.Offset(), sc.Frames(), off)
		}
	})
}
