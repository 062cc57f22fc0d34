package codeserver

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

// streamSrc has helper methods behind the entry on the wire, so the
// streaming path has a real prefix to execute early.
const streamSrc = `
class Acc {
    int n;
    Acc(int v) { n = v; }
    int add(int d) { n += d; return n; }
    int sq() { return n * n; }
}
class Main {
    static void main() {
        Acc a = new Acc(4);
        a.add(3);
        System.out.println(a.sq());
    }
}
`

// streamUnit compiles streamSrc and encodes it at the given wire
// version, returning the bytes and the expected output.
func streamUnit(t *testing.T, v2 bool) ([]byte, string) {
	t.Helper()
	mod, err := driver.CompileTSASource(map[string]string{"Main.tj": streamSrc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := driver.RunModule(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 {
		return wire.EncodeModuleV2(mod, nil), want
	}
	return wire.EncodeModule(mod), want
}

// TestHTTPRunStream drives POST /run-stream end to end: the unit
// executes, the response carries the output and a content hash, and the
// admitted bytes land in the unit store (servable via GET /unit).
func TestHTTPRunStream(t *testing.T) {
	for _, v2 := range []bool{false, true} {
		name := "v1"
		if v2 {
			name = "v2"
		}
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			data, want := streamUnit(t, v2)
			resp, err := http.Post(ts.URL+"/run-stream?max_steps=1000000", "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("run-stream status %d: %s", resp.StatusCode, body)
			}
			rr := decodeBody[RunStreamResult](t, resp)
			if !rr.OK || rr.Output != want {
				t.Fatalf("stream run result %+v, want output %q", rr, want)
			}
			if rr.Hash == "" {
				t.Fatal("stream run returned no content hash")
			}

			// The admitted unit is cached byte-identically under its
			// wire key and servable.
			resp, err = http.Get(ts.URL + "/unit/" + rr.Hash)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("unit fetch: status %d, err %v", resp.StatusCode, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("cached stream unit differs from the delivered bytes")
			}

			st := s.Stats()
			if st.UnitsCached != 1 {
				t.Fatalf("units cached = %d, want 1", st.UnitsCached)
			}
			if st.StreamRejects != 0 {
				t.Fatalf("stream rejects = %d, want 0", st.StreamRejects)
			}
			if st.WireDecodeStreamLatency.Count == 0 {
				t.Fatal("wire_decode_stream stage recorded no samples")
			}
		})
	}
}

// TestHTTPRunStreamPartialDelivery truncates the stream at every
// function boundary and at mid-varint cuts around them: every request
// must be rejected as a verify error, and afterwards NOTHING may sit in
// either cache tier — no encoded unit, no decoded module.
func TestHTTPRunStreamPartialDelivery(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	data, _ := streamUnit(t, true)
	su, err := wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := su.Wait(); err != nil {
		t.Fatal(err)
	}

	cuts := map[int64]bool{0: true, 1: true, 5: true}
	for _, b := range su.Boundaries() {
		for _, c := range []int64{b - 1, b, b + 1} {
			if c >= 0 && c < int64(len(data)) {
				cuts[c] = true
			}
		}
	}
	rejects := 0
	for cut := range cuts {
		resp, err := http.Post(ts.URL+"/run-stream", "application/octet-stream", bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("truncation to %d/%d bytes was accepted: %s", cut, len(data), body)
		}
		if !strings.Contains(string(body), "verify") && !strings.Contains(string(body), "rejected") {
			t.Fatalf("cut %d: unexpected rejection shape: %s", cut, body)
		}
		rejects++
	}

	st := s.Stats()
	if st.UnitsCached != 0 || st.ModulesLoaded != 0 {
		t.Fatalf("partial deliveries leaked into the caches: units=%d modules=%d",
			st.UnitsCached, st.ModulesLoaded)
	}
	if st.StreamRejects != uint64(rejects) {
		t.Fatalf("stream rejects = %d, want %d", st.StreamRejects, rejects)
	}
}

// TestHTTPRunStreamTrailingGarbage: a complete, valid unit followed by
// trailing bytes is rejected by the streaming path too — one spelling
// on the wire — and does not enter the cache even though the guest may
// already have executed.
func TestHTTPRunStreamTrailingGarbage(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	data, _ := streamUnit(t, true)
	garbled := append(bytes.Clone(data), 0x00, 0xAB)
	resp, err := http.Post(ts.URL+"/run-stream", "application/octet-stream", bytes.NewReader(garbled))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("trailing garbage accepted: %s", body)
	}
	if st := s.Stats(); st.UnitsCached != 0 {
		t.Fatalf("garbled stream cached: units=%d", st.UnitsCached)
	}
}

// TestWireVersionCacheKey: the configured wire version is part of unit
// identity — the same source compiled under v1 and v2 servers yields
// different keys and differently encoded units, and each server's unit
// decodes with the matching decoder.
func TestWireVersionCacheKey(t *testing.T) {
	k1 := KeyFor(helloFiles(), Options{Optimize: true})
	k2 := KeyFor(helloFiles(), Options{Optimize: true, WireV2: true})
	if k1 == k2 {
		t.Fatal("wire version does not affect the cache key")
	}

	s2 := newTestServer(t, Config{WireVersion: 2})
	unit, _, err := s2.CompileUnit(t.Context(), helloFiles(), Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if unit.Key != k2 {
		t.Fatalf("v2 server key %s, want %s", unit.Key, k2)
	}
	if _, err := wire.DecodeModuleV1(unit.Wire); err == nil {
		t.Fatal("v2 server emitted a unit a v1-only consumer accepts")
	}
	if _, err := wire.DecodeVerified(unit.Wire); err != nil {
		t.Fatalf("v2 unit does not decode: %v", err)
	}
}
