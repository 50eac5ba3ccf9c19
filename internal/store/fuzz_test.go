package store

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sampling"
)

// FuzzDecodeState hammers the one decoder every state artifact passes
// through — disk checkpoints, /v1/import, /v1/export round-trips and
// the cluster's /v1/export-/v1/import exchange. The contract under
// arbitrary bytes: reject with an error or accept, never panic; and an
// accepted artifact must survive its own re-encode (the decoder may not
// hand the engine a state the encoder cannot represent).
func FuzzDecodeState(f *testing.F) {
	eng, err := engine.New(engine.Config{Instances: 2, K: 4, Shards: 2, Hash: sampling.NewSeedHash(5)})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := eng.Ingest(i%2, uint64(i%16), 1+float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	valid := EncodeState(eng.DumpState())

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
