package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safetsa/internal/bench"
	"safetsa/internal/codeserver"
	"safetsa/internal/wire"
)

// switchHandler lets an httptest server come up before the Node whose
// handler it will serve exists: the fleet needs every member's URL to
// build its ring, and every member needs its handler served at that URL.
type switchHandler struct{ h atomic.Value }

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not ready", http.StatusServiceUnavailable)
}

// fleet is a 3-node in-process cluster: real codeservers, real HTTP
// between members, separate disk tiers.
type fleet struct {
	names []string
	urls  map[string]string
	srvs  map[string]*codeserver.Server
	nodes map[string]*Node
}

func newFleet(t *testing.T, names []string, mut func(*Config)) *fleet {
	t.Helper()
	f := &fleet{
		names: names,
		urls:  make(map[string]string),
		srvs:  make(map[string]*codeserver.Server),
		nodes: make(map[string]*Node),
	}
	handlers := make(map[string]*switchHandler)
	for _, name := range names {
		sh := &switchHandler{}
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		handlers[name] = sh
		f.urls[name] = ts.URL
	}
	for _, name := range names {
		srv, err := codeserver.New(codeserver.Config{NodeName: name, CacheDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Self: name, Peers: f.urls, VNodes: 16}
		if mut != nil {
			mut(&cfg)
		}
		node, err := NewNode(srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		handlers[name].h.Store(node.Handler())
		f.srvs[name] = srv
		f.nodes[name] = node
	}
	return f
}

func (f *fleet) owner(k codeserver.Key) string {
	return f.nodes[f.names[0]].Ring().Owner(k.String())
}

// fleetProgram is the i-th distinct tiny guest: distinct source → a
// distinct content key, terminating run, deterministic output.
func fleetProgram(i int) map[string]string {
	return map[string]string{"P.tj": fmt.Sprintf(`
class P {
    static void main() {
        System.out.println("p" + (%d * 7 + %d));
    }
}`, i, i)}
}

func fleetCompile(t *testing.T, url string, files map[string]string) codeserver.CompileResponse {
	t.Helper()
	body, _ := json.Marshal(codeserver.CompileRequest{Files: files})
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("compile via %s: status %d: %s", url, resp.StatusCode, b)
	}
	var cr codeserver.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func fleetRun(url, hash string) (codeserver.RunResult, int, error) {
	body, _ := json.Marshal(codeserver.RunRequest{MaxSteps: 1_000_000})
	resp, err := http.Post(url+"/run/"+hash, "application/json", bytes.NewReader(body))
	if err != nil {
		return codeserver.RunResult{}, 0, err
	}
	defer resp.Body.Close()
	var rr codeserver.RunResult
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&rr)
	} else {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		err = fmt.Errorf("run status %d: %s", resp.StatusCode, b)
	}
	return rr, resp.StatusCode, err
}

// TestFleetSingleCompilePerUnit is the headline cluster invariant: under
// concurrent mixed compile/run traffic sprayed across every node, each
// unit key is compiled exactly once fleet-wide — by its ring owner — and
// every node ends up serving byte-identical, locally re-verified units.
func TestFleetSingleCompilePerUnit(t *testing.T) {
	names := []string{"a1", "b2", "c3"}
	f := newFleet(t, names, nil)

	const units = 6
	keys := make([]codeserver.Key, units)
	hashes := make([]string, units)
	for i := 0; i < units; i++ {
		keys[i] = codeserver.KeyFor(fleetProgram(i), codeserver.Options{})
		hashes[i] = keys[i].String()
	}

	const workers = 32
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			unit := 0
			for i := 0; i < 12; i++ {
				node := names[rng.Intn(len(names))]
				if i%2 == 0 {
					unit = rng.Intn(units)
					body, _ := json.Marshal(codeserver.CompileRequest{Files: fleetProgram(unit)})
					resp, err := http.Post(f.urls[node]+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("compile on %s: status %d: %s", node, resp.StatusCode, b)
						return
					}
				} else {
					// Run the unit this worker just compiled: a run of a
					// unit no compile has finished yet is a legitimate
					// 404, so a random pick made the test flaky.
					rr, _, err := fleetRun(f.urls[node], hashes[unit])
					if err != nil {
						errCh <- fmt.Errorf("run on %s: %w", node, err)
						return
					}
					want := fmt.Sprintf("p%d\n", unit*7+unit)
					if !rr.OK || rr.Output != want {
						errCh <- fmt.Errorf("run %d on %s: %+v, want output %q", unit, node, rr, want)
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// (a) Exactly one compile per unit fleet-wide, and only on the owner.
	wantCompiles := map[string]uint64{}
	for i := 0; i < units; i++ {
		wantCompiles[f.owner(keys[i])]++
	}
	var total uint64
	for _, name := range names {
		st := f.srvs[name].Stats()
		total += st.Compiles
		if st.Compiles != wantCompiles[name] {
			t.Errorf("node %s ran %d compiles, want %d (its owned share)", name, st.Compiles, wantCompiles[name])
		}
		if st.CompileErrors != 0 {
			t.Errorf("node %s recorded %d compile errors", name, st.CompileErrors)
		}
		if st.PeerFillRejects != 0 {
			t.Errorf("node %s rejected %d honest peer fills", name, st.PeerFillRejects)
		}
	}
	if total != units {
		t.Errorf("fleet ran %d compiles for %d units", total, units)
	}

	// (b) Every node serves every unit byte-identical to the owner's
	// encoding, and the served bytes re-verify.
	for i := 0; i < units; i++ {
		ownerBytes := fetchUnitBytes(t, f.urls[f.owner(keys[i])], hashes[i])
		if _, err := wire.DecodeVerified(ownerBytes); err != nil {
			t.Fatalf("owner unit %d does not verify: %v", i, err)
		}
		for _, name := range names {
			got := fetchUnitBytes(t, f.urls[name], hashes[i])
			if !bytes.Equal(got, ownerBytes) {
				t.Errorf("unit %d from %s differs from owner encoding", i, name)
			}
		}
	}

	// Peer fills happened (non-owners served the units) and none were
	// trusted blindly: the fill counters on non-owner nodes are non-zero.
	var fills uint64
	for _, name := range names {
		fills += f.srvs[name].Stats().PeerFills
	}
	if fills == 0 {
		t.Error("no peer fills recorded — traffic never crossed node boundaries")
	}
}

func fetchUnitBytes(t *testing.T, url, hash string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/unit/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unit fetch from %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return data
}

// TestFleetForwardedCompileKeepsErrorKind: a compile whose source is
// broken must come back as the same 4xx class from every node — the
// owner's parse/sema classification survives the peer hop instead of
// collapsing into a 500.
func TestFleetForwardedCompileKeepsErrorKind(t *testing.T) {
	f := newFleet(t, []string{"a1", "b2", "c3"}, nil)
	bad := map[string]string{"Bad.tj": "class Bad { static void main() { int x = \"notanint\"; } }"}
	for _, name := range f.names {
		body, _ := json.Marshal(codeserver.CompileRequest{Files: bad})
		resp, err := http.Post(f.urls[name]+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er codeserver.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("node %s: bad source compile status %d, want 400", name, resp.StatusCode)
		}
		if er.Kind != "sema" && er.Kind != "parse" {
			t.Errorf("node %s: error kind %q, want a user-program kind", name, er.Kind)
		}
	}
}

// TestFleetStatsGossip: after traffic and a gossip round, every node's
// /stats reports a fleet view covering all three members with their
// per-node counters.
func TestFleetStatsGossip(t *testing.T) {
	f := newFleet(t, []string{"a1", "b2", "c3"}, nil)
	cr := fleetCompile(t, f.urls["a1"], fleetProgram(0))
	for _, name := range f.names {
		if rr, _, err := fleetRun(f.urls[name], cr.Hash); err != nil || !rr.OK {
			t.Fatalf("run on %s: %+v err %v", name, rr, err)
		}
	}
	for _, name := range f.names {
		f.nodes[name].GossipOnce(context.Background())
	}

	resp, err := http.Get(f.urls["b2"] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Node != "b2" {
		t.Errorf("stats node %q, want b2", fs.Node)
	}
	if len(fs.Ring.Nodes) != 3 || fs.Ring.VNodes != 16 {
		t.Errorf("ring info %+v", fs.Ring)
	}
	if len(fs.Fleet) != 3 {
		t.Fatalf("fleet view has %d rows, want 3: %+v", len(fs.Fleet), fs.Fleet)
	}
	var runs uint64
	for _, row := range fs.Fleet {
		if !row.Reachable {
			t.Errorf("fleet row %s unreachable", row.Node)
		}
		runs += row.Runs
	}
	if runs != 3 {
		t.Errorf("fleet view reports %d runs, want 3", runs)
	}
	if fs.GossipErrors != 0 {
		t.Errorf("gossip errors: %d", fs.GossipErrors)
	}
	if fs.Local.Node != "b2" {
		t.Errorf("local stats node %q", fs.Local.Node)
	}
}

// TestFleetLoadReplay is acceptance for the load generator against the
// cluster: a zipfian 80/20 run/compile replay sprayed over all three
// nodes completes without errors and emits a valid safetsa-bench-v9
// report with a real run-latency distribution.
func TestFleetLoadReplay(t *testing.T) {
	f := newFleet(t, []string{"a1", "b2", "c3"}, nil)
	targets := make([]string, 0, 3)
	for _, name := range f.names {
		targets = append(targets, f.urls[name])
	}

	res, err := bench.RunLoad(context.Background(), bench.LoadConfig{
		Targets:  targets,
		Workers:  8,
		Requests: 150,
		Duration: time.Minute, // backstop; the quota ends the replay
		Units:    8,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("fleet replay recorded %d errors: %v", res.Errors, res.ErrorSamples)
	}
	if res.Runs == 0 || res.Compiles == 0 {
		t.Fatalf("replay mix degenerate: %d runs, %d compiles", res.Runs, res.Compiles)
	}
	run := res.RunHist.Summary()
	if run.P50Nanos <= 0 || run.P99Nanos <= 0 {
		t.Fatalf("run stage latencies empty: %+v", run)
	}

	data, err := bench.FormatJSONLoad(res)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema string `json:"schema"`
		Load   *struct {
			Latencies map[string]struct {
				P50Nanos int64 `json:"p50_nanos"`
				P99Nanos int64 `json:"p99_nanos"`
			} `json:"latencies"`
		} `json:"load"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != "safetsa-bench-v9" {
		t.Errorf("schema %q, want safetsa-bench-v9", rep.Schema)
	}
	if rep.Load == nil || rep.Load.Latencies["run"].P50Nanos <= 0 || rep.Load.Latencies["run"].P99Nanos <= 0 {
		t.Errorf("archived run latencies not populated: %+v", rep.Load)
	}

	// The replay exercised the whole cluster: the fleet still compiled
	// each warmed unit exactly once, wherever the traffic landed.
	var compiles uint64
	for _, name := range f.names {
		compiles += f.srvs[name].Stats().Compiles
	}
	if compiles != 8 {
		t.Errorf("fleet ran %d compiles for an 8-unit universe", compiles)
	}
}

// TestFleetHotReplication: a unit whose run rate crosses the threshold
// on its owner is pushed to its ring successor, which re-admits it
// through local verification and then serves it from its own store.
func TestFleetHotReplication(t *testing.T) {
	f := newFleet(t, []string{"a1", "b2", "c3"}, func(c *Config) {
		c.HotThreshold = 3
		c.HotWindow = time.Minute
		c.Replicas = 2
	})
	cr := fleetCompile(t, f.urls["a1"], fleetProgram(1))
	k, err := codeserver.ParseKey(cr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.owner(k)
	succ := f.nodes[owner].Ring().Successors(cr.Hash, 2)
	if len(succ) != 2 {
		t.Fatalf("successors %v", succ)
	}
	replica := succ[1]

	if _, ok := f.srvs[replica].Unit(k); ok {
		t.Fatalf("replica node %s already holds the unit before it is hot", replica)
	}
	for i := 0; i < 3; i++ {
		if rr, _, err := fleetRun(f.urls[owner], cr.Hash); err != nil || !rr.OK {
			t.Fatalf("run %d on owner: %+v err %v", i, rr, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := f.srvs[replica].Unit(k); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot unit never replicated to %s", replica)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.nodes[owner].replicaPushes.Load(); got == 0 {
		t.Error("owner recorded no replica pushes")
	}
	if st := f.srvs[replica].Stats(); st.PeerFills == 0 {
		t.Error("replica admission did not go through the peer-fill counters")
	}
	// The replica arrived verified and byte-identical.
	ownerBytes := fetchUnitBytes(t, f.urls[owner], cr.Hash)
	u, _ := f.srvs[replica].Unit(k)
	if !bytes.Equal(u.Wire, ownerBytes) {
		t.Error("replica bytes differ from owner encoding")
	}
}
