package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/internal/store"
)

// These tests pin the sketch-exchange face of /v1/export and /v1/import —
// the binary wire a cluster coordinator (or any peer) speaks to a node:
// the conditional-fetch ETag protocol, and fail-closed merging of hostile
// or incompatible artifacts.

// sketchTestServer is newTestServer plus the engine handle, which the
// sketch-exchange tests need to ingest out-of-band and read versions.
func sketchTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Config{Instances: 2, K: 8, Shards: 4, Hash: sampling.NewSeedHash(7)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

func getExport(t *testing.T, url, ifNoneMatch string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/export", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSketchETagCycle pins the version-vector cache protocol on
// /v1/export: the ETag is the artifact's own cut version (also under a
// racing writer), a matching If-None-Match (strong, weak, wildcard or
// list) answers 304 with no body, and a write invalidates the tag.
func TestSketchETagCycle(t *testing.T) {
	ts, eng := sketchTestServer(t)
	for i := 0; i < 20; i++ {
		if err := eng.Ingest(i%2, uint64(i), 1+float64(i)); err != nil {
			t.Fatal(err)
		}
	}

	resp := getExport(t, ts.URL, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("200 response carries no ETag")
	}
	st, err := store.DecodeState(readAll(t, resp))
	if err != nil {
		t.Fatalf("body is not a state artifact: %v", err)
	}
	if want := etagFor(st.Version); etag != want {
		t.Fatalf("ETag %s does not label the artifact's cut version (%s)", etag, want)
	}
	if len(st.Keys) != 20 {
		t.Fatalf("artifact holds %d keys, want 20", len(st.Keys))
	}

	for _, inm := range []string{etag, "W/" + etag, "*", `"junk", ` + etag} {
		resp := getExport(t, ts.URL, inm)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if body := readAll(t, resp); len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried %d body bytes", inm, len(body))
		}
	}

	if err := eng.Ingest(0, 99, 123); err != nil {
		t.Fatal(err)
	}
	resp = getExport(t, ts.URL, etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale tag after write: status %d, want 200", resp.StatusCode)
	}
	if fresh := resp.Header.Get("ETag"); fresh == etag {
		t.Fatalf("ETag %s unchanged across a mutation", fresh)
	}
	readAll(t, resp)

	// Under a racing writer the tag must still label the bytes it rides
	// with: a pre-write artifact under a post-write ETag would pin stale
	// state in the fetcher's cache.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				// A bounded key set under growing weights: every ingest
				// is a real mutation, and the artifact stays small.
				_ = eng.Ingest(i%2, uint64(1000+i%64), 1+float64(i))
			}
		}
	}()
	for i := 0; i < 50; i++ {
		resp := getExport(t, ts.URL, "")
		tag := resp.Header.Get("ETag")
		st, err := store.DecodeState(readAll(t, resp))
		if err != nil {
			t.Fatalf("racing export %d: %v", i, err)
		}
		if want := etagFor(st.Version); tag != want {
			t.Fatalf("racing export %d: ETag %s on an artifact cut at version %s", i, tag, want)
		}
	}
	close(stop)
	<-done
}

func postImport(t *testing.T, url string, artifact []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/import", "application/octet-stream", bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// peerArtifact encodes the state of a fresh peer engine fed the given
// updates under the given salt.
func peerArtifact(t *testing.T, cfg engine.Config, updates []engine.Update) []byte {
	t.Helper()
	peer, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.IngestBatch(updates); err != nil {
		t.Fatal(err)
	}
	return store.EncodeState(peer.DumpState())
}

// TestMergeFoldsPeerState: the happy path — a peer artifact under the
// same salt folds in, the response reports the merge, and the engine now
// serves the union.
func TestMergeFoldsPeerState(t *testing.T) {
	ts, eng := sketchTestServer(t)
	if err := eng.Ingest(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	artifact := peerArtifact(t,
		engine.Config{Instances: 2, K: 8, Shards: 2, Hash: sampling.NewSeedHash(7)},
		[]engine.Update{{Instance: 1, Key: 2, Weight: 20}, {Instance: 0, Key: 3, Weight: 30}})

	resp := postImport(t, ts.URL, artifact)
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v, want 200", resp.StatusCode, body)
	}
	if got := body["merged_keys"]; got != float64(2) {
		t.Fatalf("merged_keys = %v, want 2", got)
	}
	st := eng.DumpState()
	if len(st.Keys) != 3 {
		t.Fatalf("engine holds %d keys after merge, want 3", len(st.Keys))
	}
}

// TestMergeCorruptionMatrix drives /v1/import with every corruption class
// the binary wire can see — truncation, checksum damage, header lies,
// garbage, and a well-formed artifact from an incompatible peer (wrong
// salt, wrong k). Each must fail closed: structured 400 envelope, and
// the engine byte-for-byte untouched (verified against /v1/export
// before/after, version included).
func TestMergeCorruptionMatrix(t *testing.T) {
	ts, eng := sketchTestServer(t)
	for i := 0; i < 10; i++ {
		if err := eng.Ingest(i%2, uint64(i), 2+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sameCfg := engine.Config{Instances: 2, K: 8, Shards: 2, Hash: sampling.NewSeedHash(7)}
	peerUpd := []engine.Update{{Instance: 0, Key: 100, Weight: 5}}
	valid := peerArtifact(t, sameCfg, peerUpd)

	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	lenLie := append([]byte(nil), valid...)
	lenLie[8] ^= 0xFF

	saltCfg := sameCfg
	saltCfg.Hash = sampling.NewSeedHash(99)
	kCfg := sameCfg
	kCfg.K = 16
	instCfg := sameCfg
	instCfg.Instances = 3
	instUpd := []engine.Update{{Instance: 2, Key: 100, Weight: 5}}

	cases := []struct {
		name     string
		artifact []byte
	}{
		{"truncated", valid[:len(valid)-9]},
		{"crc-flipped", crcFlip},
		{"length-lie", lenLie},
		{"not-an-artifact", []byte("POST me something real")},
		{"empty", nil},
		{"seed-mismatch", peerArtifact(t, saltCfg, peerUpd)},
		{"k-mismatch", peerArtifact(t, kCfg, peerUpd)},
		{"instances-mismatch", peerArtifact(t, instCfg, instUpd)},
	}

	before := readAll(t, getExport(t, ts.URL, ""))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postImport(t, ts.URL, tc.artifact)
			body := decodeBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d body %v, want 400", resp.StatusCode, body)
			}
			errObj, ok := body["error"].(map[string]any)
			if !ok || errObj["code"] != "bad_request" {
				t.Fatalf("body %v, want error.code bad_request", body)
			}
			after := readAll(t, getExport(t, ts.URL, ""))
			if !bytes.Equal(before, after) {
				t.Fatal("rejected merge changed the engine state artifact")
			}
		})
	}

	// The matrix would be vacuous if the valid artifact also bounced.
	resp := postImport(t, ts.URL, valid)
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid artifact: status %d body %v, want 200", resp.StatusCode, body)
	}
}
