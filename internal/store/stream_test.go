package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/engine"
)

func streamBatches(n, per int) [][]engine.Update {
	rng := rand.New(rand.NewSource(7))
	out := make([][]engine.Update, n)
	for i := range out {
		b := make([]engine.Update, per)
		for j := range b {
			b[j] = engine.Update{
				Instance: rng.Intn(3),
				Key:      rng.Uint64(),
				Weight:   rng.Float64() * 10,
			}
		}
		out[i] = b
	}
	return out
}

func encodeStream(batches [][]engine.Update) []byte {
	buf := AppendStreamHeader(nil)
	for _, b := range batches {
		buf = AppendFrame(buf, b)
	}
	return buf
}

func TestFrameScannerRoundTrip(t *testing.T) {
	batches := streamBatches(17, 9)
	batches = append(batches, []engine.Update{}) // empty frame is legal
	sc := NewFrameScanner(bytes.NewReader(encodeStream(batches)))
	for i, want := range batches {
		got, err := sc.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d updates, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("frame %d update %d: %+v != %+v", i, j, got[j], want[j])
			}
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	if sc.Frames() != uint64(len(batches)) {
		t.Fatalf("Frames() = %d, want %d", sc.Frames(), len(batches))
	}
}

// The wire frame must be byte-identical to a WAL record, so a captured
// stream body (minus its magic) is a replayable WAL tail: what the file
// store appends to a segment is exactly AppendFrame's bytes.
func TestFrameMatchesWALRecordEncoding(t *testing.T) {
	batch := streamBatches(1, 5)[0]
	frame := AppendFrame(nil, batch)
	plen := binary.LittleEndian.Uint32(frame[:4])
	if int(plen) != len(frame)-8 {
		t.Fatalf("frame length prefix %d, frame payload %d", plen, len(frame)-8)
	}
	if n := binary.LittleEndian.Uint32(frame[8:]); int(n) != len(batch) || len(frame) != 12+len(batch)*updateBytes {
		t.Fatalf("frame of %d bytes declares %d updates, want %d in %d bytes", len(frame), n, len(batch), 12+len(batch)*updateBytes)
	}

	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(recoveryTarget{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(st.(*fileStore).segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte(walMagic), frame...); !bytes.Equal(seg, want) {
		t.Fatalf("WAL segment holds %x, want magic + AppendFrame bytes %x", seg, want)
	}
}

func TestFrameScannerRejectsCorruption(t *testing.T) {
	batches := streamBatches(3, 4)
	good := encodeStream(batches)

	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", append([]byte("MONESTXX"), good[8:]...)},
		{"empty stream", nil},
		{"truncated magic", good[:5]},
		{"torn frame header", good[:8+3]},
		{"torn payload", good[:len(good)-5]},
		{"flipped payload bit", func() []byte {
			b := bytes.Clone(good)
			b[len(b)-1] ^= 1
			return b
		}()},
		{"oversized declared length", func() []byte {
			b := bytes.Clone(good)
			binary.LittleEndian.PutUint32(b[8:], MaxStreamFrameBytes+1)
			return b
		}()},
		{"undersized declared length", func() []byte {
			b := bytes.Clone(good)
			binary.LittleEndian.PutUint32(b[8:], 3)
			return b
		}()},
		{"count/length mismatch", func() []byte {
			b := bytes.Clone(good)
			// Payload starts at 16: bump the update count without adding bytes.
			n := binary.LittleEndian.Uint32(b[16:])
			binary.LittleEndian.PutUint32(b[16:], n+1)
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewFrameScanner(bytes.NewReader(tc.data))
			var err error
			for err == nil {
				_, err = sc.Next()
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("%s scanned cleanly to EOF; want an error", tc.name)
			}
		})
	}
}

// A truncation exactly on a frame boundary is indistinguishable from a
// clean close — the scanner must report EOF, and the frames before the
// cut must have been delivered.
func TestFrameScannerCleanEOFOnBoundary(t *testing.T) {
	batches := streamBatches(2, 4)
	full := encodeStream(batches)
	first := AppendFrame(AppendStreamHeader(nil), batches[0])
	sc := NewFrameScanner(bytes.NewReader(full[:len(first)]))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("boundary truncation: %v, want io.EOF", err)
	}
}

func TestFrameScannerReusesScratch(t *testing.T) {
	batches := streamBatches(50, 8)
	sc := NewFrameScanner(bytes.NewReader(encodeStream(batches)))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := sc.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Next allocates %.1f/op, want 0", allocs)
	}
}
