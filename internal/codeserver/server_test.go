package codeserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"safetsa/internal/driver"
	"safetsa/internal/wire"
)

const helloSrc = `
class Hello {
    static void main() {
        System.out.println("hello, " + (6 * 7));
    }
}
`

func helloFiles() map[string]string {
	return map[string]string{"Hello.tj": helloSrc}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPCompileFetchRun(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Compile.
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}
	cr := decodeBody[CompileResponse](t, resp)
	if cr.Cached {
		t.Error("first compile reported cached")
	}
	if cr.Instructions <= 0 || cr.Size <= 0 {
		t.Errorf("bad unit summary: %+v", cr)
	}
	if cr.Hash != KeyFor(helloFiles(), Options{Optimize: true}).String() {
		t.Errorf("hash mismatch: %s", cr.Hash)
	}

	// Second compile is a cache hit.
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	if cr2 := decodeBody[CompileResponse](t, resp); !cr2.Cached {
		t.Error("second compile not served from cache")
	}

	// Fetch the unit and check it is a decodable distribution unit that
	// matches a direct pipeline run.
	resp, err := http.Get(ts.URL + "/unit/" + cr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unit fetch: status %d, err %v", resp.StatusCode, err)
	}
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		t.Fatalf("served unit does not decode: %v", err)
	}
	want, err := driver.RunModule(mod, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Run.
	resp = postJSON(t, ts.URL+"/run/"+cr.Hash, RunRequest{MaxSteps: 1_000_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	rr := decodeBody[RunResult](t, resp)
	if !rr.OK || rr.Output != want {
		t.Fatalf("run result %+v, want output %q", rr, want)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[Stats](t, resp)
	if st.Compiles != 1 || st.CacheHits != 1 || st.Runs != 1 || st.Loads != 1 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.UnitsCached != 1 || st.ModulesLoaded != 1 {
		t.Errorf("unexpected cache sizes: %+v", st)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Syntax error → 400 with kind "parse".
	resp := postJSON(t, ts.URL+"/compile", CompileRequest{
		Files: map[string]string{"Bad.tj": "class {"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error: status %d, want 400", resp.StatusCode)
	}
	if er := decodeBody[ErrorResponse](t, resp); er.Kind != "parse" {
		t.Errorf("parse error kind %q", er.Kind)
	}

	// Type error → 400 with kind "sema".
	resp = postJSON(t, ts.URL+"/compile", CompileRequest{
		Files: map[string]string{"Bad.tj": `
class Bad { static void main() { int x = "not an int"; } }`}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sema error: status %d, want 400", resp.StatusCode)
	}
	if er := decodeBody[ErrorResponse](t, resp); er.Kind != "sema" {
		t.Errorf("sema error kind %q", er.Kind)
	}

	// Unknown unit → 404.
	var k Key
	k[0] = 0xAB
	resp = postJSON(t, ts.URL+"/run/"+k.String(), RunRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown unit: status %d, want 404", resp.StatusCode)
	}
	if er := decodeBody[ErrorResponse](t, resp); er.Kind != "not_found" {
		t.Errorf("unknown unit kind %q, want \"not_found\"", er.Kind)
	}

	// Malformed hash → 400.
	resp = postJSON(t, ts.URL+"/run/nothex", RunRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hash: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPRunIgnoresEngineField: /run always executes on the compiled
// engine. An "engine" key in the body is an unknown field like any
// other: whatever it names, the run answers 200 with the same result as
// an engine-less body, and the unit keeps exactly one warm-pool
// snapshot.
func TestHTTPRunIgnoresEngineField(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/compile", CompileRequest{Files: helloFiles(), Optimize: true})
	cr := decodeBody[CompileResponse](t, resp)
	k, err := ParseKey(cr.Hash)
	if err != nil {
		t.Fatal(err)
	}

	resp = postJSON(t, ts.URL+"/run/"+cr.Hash, map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engine-less run: status %d", resp.StatusCode)
	}
	want := decodeBody[RunResult](t, resp)
	if !want.OK || want.Output != "hello, 42\n" {
		t.Fatalf("engine-less run result %+v", want)
	}
	for _, engine := range []string{"reference", "prepared"} {
		resp = postJSON(t, ts.URL+"/run/"+cr.Hash, map[string]any{"engine": engine})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d, want 200", engine, resp.StatusCode)
		}
		if got := decodeBody[RunResult](t, resp); got != want {
			t.Errorf("engine %q: result %+v, want %+v", engine, got, want)
		}
	}
	if s.sessions.Get(k) == nil {
		t.Error("runs left no warm-pool snapshot for the unit")
	}
	if n := s.sessions.Len(); n != 1 {
		t.Errorf("warm pool holds %d snapshots, want 1", n)
	}
}

func TestGuestFailureReportedInBody(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	u, _, err := s.CompileUnit(ctx, map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunUnit(ctx, u.Key, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Error == "" {
		t.Fatalf("runaway program not reported: %+v", res)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	files := helloFiles()
	key := KeyFor(files, Options{})

	s1 := newTestServer(t, Config{CacheDir: dir})
	if _, _, err := s1.CompileUnit(context.Background(), files, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, key.String()+".tsa")); err != nil {
		t.Fatalf("unit not persisted: %v", err)
	}

	// A fresh server over the same dir serves the unit without compiling.
	s2 := newTestServer(t, Config{CacheDir: dir})
	u, cached, err := s2.CompileUnit(context.Background(), files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("disk-tier unit not reported as cached")
	}
	if u.Instrs <= 0 {
		t.Errorf("disk-tier unit lost its metadata: %+v", u)
	}
	st := s2.Stats()
	if st.Compiles != 0 || st.DiskHits != 1 {
		t.Errorf("unexpected stats after disk hit: %+v", st)
	}
	res, err := s2.RunUnit(context.Background(), u.Key, 0)
	if err != nil || !res.OK {
		t.Fatalf("run after restart: %+v, %v", res, err)
	}
}

func TestStoreEviction(t *testing.T) {
	m := &Metrics{}
	// One slot per shard: the second unit landing on a shard evicts the
	// first.
	st, err := NewStore("", 1, m)
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := 0; ; i++ {
		k := KeyFor(map[string]string{"f": fmt.Sprint(i)}, Options{})
		// Find two keys on the same shard.
		for _, prev := range keys {
			if prev[0]%numShards == k[0]%numShards {
				fill := func(context.Context) (*Unit, error) {
					return &Unit{Wire: []byte{1}, Size: 1, Instrs: 1}, nil
				}
				if _, _, err := st.GetOrFill(context.Background(), prev, fill); err != nil {
					t.Fatal(err)
				}
				if _, _, err := st.GetOrFill(context.Background(), k, fill); err != nil {
					t.Fatal(err)
				}
				if _, ok := st.Get(prev); ok {
					t.Error("evicted unit still resident")
				}
				if m.evictions.Load() != 1 {
					t.Errorf("evictions = %d, want 1", m.evictions.Load())
				}
				return
			}
		}
		keys = append(keys, k)
		if i > 10000 {
			t.Fatal("no shard collision found")
		}
	}
}

func TestStageTimeout(t *testing.T) {
	// A pool with an absurdly small stage timeout must fail with an
	// internal error, not hang.
	m := &Metrics{}
	p := NewPool(1, time.Nanosecond, m)
	_, err := p.Compile(context.Background(), helloFiles(), Options{})
	if err == nil {
		t.Fatal("expected stage timeout")
	}
	if driver.IsUserError(err) {
		t.Errorf("stage timeout classified as user error: %v", err)
	}
}
