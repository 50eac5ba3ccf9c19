package server

import (
	"bytes"
	"cmp"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
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

func getExport(t *testing.T, base, ifNoneMatch string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/export", nil)
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

// getSince is the coordinator's fetch: GET /v1/export?since=<since>.
func getSince(t *testing.T, base, since string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/export?since=" + url.QueryEscape(since))
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

// cutVersion parses an /v1/export ETag and returns its version field.
func cutVersion(t *testing.T, etag string) uint64 {
	t.Helper()
	c, err := parseCursor(etag)
	if err != nil || c.incarnation == "" {
		t.Fatalf("ETag %q is not an export cursor: %v", etag, err)
	}
	return c.version
}

// TestSketchETagCycle pins the version-vector cache protocol on
// /v1/export: the ETag's version field is the artifact's own cut version
// (also under a racing writer), a matching If-None-Match (strong, weak,
// wildcard or list) answers 304 with no body, and a write invalidates the
// tag.
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
	if got := cutVersion(t, etag); got != st.Version {
		t.Fatalf("ETag %s does not label the artifact's cut version (%d)", etag, st.Version)
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
		if got := cutVersion(t, tag); got != st.Version {
			t.Fatalf("racing export %d: ETag %s on an artifact cut at version %d", i, tag, st.Version)
		}
		// The compact cut obeys the same rule.
		resp = getSince(t, ts.URL, "")
		tag = resp.Header.Get("ETag")
		if st, err = store.DecodeState(readAll(t, resp)); err != nil {
			t.Fatalf("racing compact export %d: %v", i, err)
		}
		if got := cutVersion(t, tag); got != st.Version {
			t.Fatalf("racing compact export %d: ETag %s on an artifact cut at version %d", i, tag, st.Version)
		}
	}
	close(stop)
	<-done
}

// TestExportSince pins the coordinator's fetch, GET /v1/export?since=:
// a malformed cursor is a 400; a cursor from this process at the current
// version is a bodiless 304; otherwise the answer is the engine's global
// bottom-(k+1) per instance, with the key registry exactly when the
// cursor is empty, from another incarnation, or names another registry
// size. A plain GET carries the same entries plus the registry, byte for
// byte store.EncodeState(DumpState()). The expected entries come from the
// weights the test ingested, not from the engine.
func TestExportSince(t *testing.T) {
	ts, eng := sketchTestServer(t)
	cfg := eng.Config()
	// weights[i] is the max-folded weight per key this test ingested into
	// instance i: the oracle requireBottom cuts from.
	weights := make([]map[uint64]float64, cfg.Instances)
	for i := range weights {
		weights[i] = map[uint64]float64{}
	}
	ingest := func(ups ...engine.Update) {
		t.Helper()
		if err := eng.IngestBatch(ups); err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			weights[u.Instance][u.Key] = max(weights[u.Instance][u.Key], u.Weight)
		}
	}
	for i := 0; i < 60; i++ {
		ingest(engine.Update{Instance: 0, Key: uint64(i), Weight: 1 + float64(i)},
			engine.Update{Instance: 1, Key: uint64(i), Weight: 100 - float64(i)})
	}

	// fetch GETs ?since= and returns the status, the ETag's cursor and,
	// on a 200, the decoded artifact.
	fetch := func(since string) (int, exportCursor, *engine.State) {
		t.Helper()
		resp := getSince(t, ts.URL, since)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			if resp.StatusCode == http.StatusNotModified && len(body) != 0 {
				t.Fatalf("since %q: 304 carried %d body bytes", since, len(body))
			}
			return resp.StatusCode, exportCursor{}, nil
		}
		c, err := parseCursor(resp.Header.Get("ETag"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.DecodeState(body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, c, st
	}
	// requireBottom checks st holds, per instance, exactly the k+1
	// smallest-rank entries of the weights ingested so far.
	requireBottom := func(label string, st *engine.State) {
		t.Helper()
		for i, ws := range weights {
			var byRank []engine.StateEntry
			for key, w := range ws {
				byRank = append(byRank, engine.StateEntry{Key: key, Weight: w})
			}
			rank := func(en engine.StateEntry) float64 {
				return sampling.Rank(sampling.RankPriority, cfg.Hash.U(en.Key), en.Weight)
			}
			slices.SortFunc(byRank, func(a, b engine.StateEntry) int { return cmp.Compare(rank(a), rank(b)) })
			want := byRank[:cfg.K+1]
			slices.SortFunc(want, func(a, b engine.StateEntry) int { return cmp.Compare(a.Key, b.Key) })
			if !slices.Equal(st.Entries[i], want) {
				t.Fatalf("%s: instance %d entries %v, want the bottom-(k+1) %v", label, i, st.Entries[i], want)
			}
		}
	}
	stats := eng.Stats()
	reg := uint64(stats.Keys + stats.ActiveEntries)

	for _, bad := range []string{"junk", "a.b.c", "abc.1", "x.1.2.3", ".1.2", `"x.-1.2"`} {
		resp := getSince(t, ts.URL, bad)
		body := decodeBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("since %q: status %d body %v, want 400", bad, resp.StatusCode, body)
		}
	}

	code, first, st := fetch("")
	if code != http.StatusOK || len(st.Keys) != stats.Keys || first.reg != reg || first.version != eng.Version() {
		t.Fatalf("empty since: status %d, %d keys (want %d), cursor %+v (want reg %d)", code, len(st.Keys), stats.Keys, first, reg)
	}
	requireBottom("empty since", st)

	other := exportCursor{incarnation: "0123456789abcdef", version: first.version, reg: first.reg}
	if code, _, st := fetch(other.etag()); code != http.StatusOK || len(st.Keys) != stats.Keys {
		t.Fatalf("another incarnation: status %d, want 200 with the registry", code)
	} else {
		requireBottom("another incarnation", st)
	}

	for _, since := range []string{first.etag(), strings.Trim(first.etag(), `"`)} {
		if code, _, _ := fetch(since); code != http.StatusNotModified {
			t.Fatalf("same incarnation and version %q: status %d, want 304", since, code)
		}
	}

	// A weight-only change keeps the registry size: no registry.
	ingest(engine.Update{Instance: 0, Key: 5, Weight: 1e6})
	code, second, st := fetch(first.etag())
	if code != http.StatusOK || len(st.Keys) != 0 || second.reg != reg || second.version == first.version {
		t.Fatalf("reg unchanged: status %d, %d keys, cursor %+v, want 200, no registry, reg %d", code, len(st.Keys), second, reg)
	}
	requireBottom("reg unchanged", st)

	// A new key grows the registry: shipped again.
	ingest(engine.Update{Instance: 1, Key: 1000, Weight: 2})
	code, third, st := fetch(second.etag())
	if code != http.StatusOK || len(st.Keys) != stats.Keys+1 || third.reg != reg+2 {
		t.Fatalf("reg changed: status %d, %d keys, cursor %+v, want 200 with %d keys", code, len(st.Keys), third, stats.Keys+1)
	}
	requireBottom("reg changed", st)

	// The plain GET carries the same entries plus the registry, whatever
	// cursors were minted.
	got, err := store.DecodeState(readAll(t, getExport(t, ts.URL, "")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != stats.Keys+1 || !slices.Equal(got.Keys, st.Keys) {
		t.Fatalf("plain GET: %d keys, want the registry of %d", len(got.Keys), stats.Keys+1)
	}
	requireBottom("plain GET", got)
	if !bytes.Equal(store.EncodeState(got), store.EncodeState(eng.DumpState())) {
		t.Fatal("plain GET /v1/export differs from store.EncodeState(DumpState())")
	}
}

// TestImportRegistersEntryKeys: a CRC-valid artifact whose entry names a
// key missing from its registry must not put that entry's outcome at a
// neighbouring key's position; the key is registered with its instance.
func TestImportRegistersEntryKeys(t *testing.T) {
	ts, eng := sketchTestServer(t)
	st := eng.DumpState() // the empty engine's header and seed fingerprint
	st.Keys = []uint64{1, 2, 3, 8, 9}
	st.Masks = []uint64{1, 1, 1, 1, 1}
	st.Entries = [][]engine.StateEntry{{{Key: 2, Weight: 3}, {Key: 7, Weight: 5}, {Key: 8, Weight: 1}}, {{Key: 9, Weight: 2}}}
	resp := postImport(t, ts.URL, store.EncodeState(st))
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v, want 200", resp.StatusCode, body)
	}
	view := eng.FreshView()
	for _, o := range view.Exceptional {
		if got := view.Keys[o.Pos]; got != o.Key {
			t.Fatalf("outcome for key %d served at position %d, which holds key %d", o.Key, o.Pos, got)
		}
	}
	if s := eng.Stats(); s.Keys != 6 || s.ActiveEntries != 7 {
		t.Fatalf("keys %d active %d, want 6 and 7", s.Keys, s.ActiveEntries)
	}
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
