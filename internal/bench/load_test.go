package bench

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"safetsa/internal/codeserver"
)

// TestRunLoadReplay drives the load generator against an in-process
// codeserver with a fixed request quota and pins the replay contract:
// every request is accounted, the mix approximates the configured 80/20
// run/compile split, the run stage has a real latency distribution, and
// the archived report is valid safetsa-bench-v9 JSON.
func TestRunLoadReplay(t *testing.T) {
	srv, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const quota = 200
	res, err := RunLoad(context.Background(), LoadConfig{
		Targets:  []string{ts.URL},
		Workers:  8,
		Requests: quota,
		Duration: time.Minute, // backstop only; the quota ends the replay
		Units:    8,
		Tenants:  3,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Errors != 0 {
		t.Fatalf("replay recorded %d errors: %v", res.Errors, res.ErrorSamples)
	}
	if res.Requests == 0 || res.Requests > quota {
		t.Fatalf("replay issued %d requests for a quota of %d", res.Requests, quota)
	}
	if res.Runs+res.Compiles+res.Throttled != res.Requests {
		t.Fatalf("counts disagree: %d runs + %d compiles + %d throttled != %d requests",
			res.Runs, res.Compiles, res.Throttled, res.Requests)
	}
	// 80/20 mix: with 200 draws the run share should be solidly dominant
	// without pinning the binomial tail.
	if float64(res.Runs)/float64(res.Requests) < 0.6 {
		t.Errorf("run share %d/%d, want a run-dominated mix", res.Runs, res.Requests)
	}
	if res.Compiles == 0 {
		t.Error("replay issued no compiles")
	}
	// The whole universe was warmed up before the timed phase, so every
	// timed compile is a cache hit.
	if res.CachedCompiles != res.Compiles {
		t.Errorf("cached %d of %d compiles, want all (warmed universe)", res.CachedCompiles, res.Compiles)
	}

	run := res.RunHist.Summary()
	if run.Count != res.Runs {
		t.Errorf("run histogram saw %d samples for %d runs", run.Count, res.Runs)
	}
	if run.P50Nanos <= 0 || run.P99Nanos <= 0 || run.P50Nanos > run.P99Nanos {
		t.Errorf("run latency digest malformed: %+v", run)
	}
	// The per-tenant digests partition the accepted runs.
	if len(res.TenantRunHists) != 3 {
		t.Fatalf("%d tenant digests, want 3", len(res.TenantRunHists))
	}
	var tenantRuns uint64
	for _, h := range res.TenantRunHists {
		tenantRuns += h.Count()
	}
	if tenantRuns != res.Runs {
		t.Errorf("tenant digests saw %d samples for %d runs", tenantRuns, res.Runs)
	}
	// Budget parity: the client's drain totals must mirror the server's
	// guest counters exactly (allocs included — the /run response now
	// reports them).
	st := srv.Stats()
	if res.GuestSteps != uint64(st.GuestSteps) || res.GuestAllocs != uint64(st.GuestAllocs) {
		t.Errorf("client drain (%d steps, %d allocs) != server (%d, %d)",
			res.GuestSteps, res.GuestAllocs, st.GuestSteps, st.GuestAllocs)
	}
	if res.GuestAllocs == 0 {
		t.Error("replay observed no guest allocations (RunResult.Allocs not wired?)")
	}

	data, err := FormatJSONLoad(res)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema string    `json:"schema"`
		Load   *JSONLoad `json:"load"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "safetsa-bench-v9" {
		t.Errorf("schema %q, want safetsa-bench-v9", rep.Schema)
	}
	if rep.Load == nil {
		t.Fatal("report lacks the load block")
	}
	if rep.Load.Latencies["run"].P50Nanos <= 0 || rep.Load.Latencies["run"].P99Nanos <= 0 {
		t.Errorf("archived run latencies not populated: %+v", rep.Load.Latencies["run"])
	}
	if rep.Load.Requests != res.Requests {
		t.Errorf("archived request count %d != %d", rep.Load.Requests, res.Requests)
	}
	if rep.Load.Tenants != 3 || len(rep.Load.TenantLatencies) != 3 {
		t.Errorf("archived tenant digests: tenants=%d, %d latency entries, want 3/3",
			rep.Load.Tenants, len(rep.Load.TenantLatencies))
	}
	if rep.Load.GuestAllocs != res.GuestAllocs {
		t.Errorf("archived guest allocs %d != %d", rep.Load.GuestAllocs, res.GuestAllocs)
	}
}

// TestRunLoadTenantThrottle pins the load generator's 429 handling: a
// run that the fair-admission gate rejects counts as throttled, not as
// an error, and the client and server books agree on the rejection and
// drain totals. tenant-0's single in-flight slot is held for the whole
// replay by a never-terminating guest, so every tenant-0 draw is
// deterministically rejected while tenant-1 runs normally.
func TestRunLoadTenantThrottle(t *testing.T) {
	srv, err := codeserver.New(codeserver.Config{TenantMaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	loop, _, err := srv.CompileUnit(context.Background(), map[string]string{"Loop.tj": `
class Loop { static void main() { while (true) { } } }`}, codeserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = srv.RunUnitOpts(fillCtx, loop.Key, codeserver.RunOptions{Tenant: "tenant-0"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().RunsInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot-holding run never started")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := RunLoad(context.Background(), LoadConfig{
		Targets:     []string{ts.URL},
		Workers:     4,
		Requests:    60,
		Duration:    time.Minute,
		Units:       4,
		Tenants:     2,
		RunFraction: 1.0,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("throttled replay recorded %d errors: %v", res.Errors, res.ErrorSamples)
	}
	if res.Throttled == 0 {
		t.Error("tenant-0 draws against a held slot never throttled")
	}
	if res.Runs == 0 {
		t.Error("tenant-1 completed no runs despite a free slot")
	}
	if h := res.TenantRunHists[0].Count(); h != 0 {
		t.Errorf("throttled tenant-0 scored %d latency samples, want none", h)
	}

	// Books must balance while the slot-holder is still in flight (its
	// own drain is not yet booked server-side).
	st := srv.Stats()
	if res.Throttled != st.TenantRejects {
		t.Errorf("client saw %d throttles, server rejected %d", res.Throttled, st.TenantRejects)
	}
	if res.Runs != st.Runs-1 { // -1: the slot-holding run itself
		t.Errorf("client completed %d runs, server admitted %d (incl. slot holder)", res.Runs, st.Runs)
	}
	if res.GuestSteps != uint64(st.GuestSteps) || res.GuestAllocs != uint64(st.GuestAllocs) {
		t.Errorf("client drain (%d steps, %d allocs) != server (%d, %d)",
			res.GuestSteps, res.GuestAllocs, st.GuestSteps, st.GuestAllocs)
	}
	cancel()
	<-done
}

// TestRunLoadRejectsInvalidConfig is the regression test for the silent
// config clamping: RunLoad used to "correct" invalid fields instead of
// rejecting them, which let genuinely broken values through — a NaN
// ZipfS passes a `<= 1` guard, reaches rand.NewZipf (which returns nil
// for it), and the replay panicked on the nil Zipf mid-run. Invalid
// configs must now fail fast with a *ConfigError naming the field,
// before any network traffic — the targets below are unreachable, so
// any attempt to start the warmup would surface as a transport error
// instead.
func TestRunLoadRejectsInvalidConfig(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name  string
		cfg   LoadConfig
		field string
	}{
		{"no targets", LoadConfig{}, "Targets"},
		{"negative workers", LoadConfig{Workers: -3}, "Workers"},
		{"negative duration", LoadConfig{Duration: -time.Second}, "Duration"},
		{"negative requests", LoadConfig{Requests: -1}, "Requests"},
		{"negative units", LoadConfig{Units: -8}, "Units"},
		{"run fraction above one", LoadConfig{RunFraction: 1.5}, "RunFraction"},
		{"run fraction NaN", LoadConfig{RunFraction: nan}, "RunFraction"},
		{"zipf below one", LoadConfig{ZipfS: 0.5}, "ZipfS"},
		{"zipf exactly one", LoadConfig{ZipfS: 1}, "ZipfS"},
		{"zipf NaN", LoadConfig{ZipfS: nan}, "ZipfS"},
		{"zipf infinite", LoadConfig{ZipfS: math.Inf(1)}, "ZipfS"},
		{"negative maxsteps", LoadConfig{MaxSteps: -5}, "MaxSteps"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.field != "Targets" {
				c.cfg.Targets = []string{"http://127.0.0.1:1"} // unreachable: must never be dialed
			}
			_, err := RunLoad(context.Background(), c.cfg)
			var cerr *ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("RunLoad(%+v) = %v, want a *ConfigError", c.cfg, err)
			}
			if cerr.Field != c.field {
				t.Errorf("rejected field %q, want %q (%v)", cerr.Field, c.field, err)
			}
		})
	}

	// Zero values still mean "use the default", not "invalid": a
	// zero-filled config (plus a target) passes validation and fails only
	// when it actually dials the dead target.
	cfg := LoadConfig{Targets: []string{"http://127.0.0.1:1"}, Requests: 1, Workers: 1}
	_, err := RunLoad(context.Background(), cfg)
	var cerr *ConfigError
	if errors.As(err, &cerr) {
		t.Errorf("zero-valued fields were rejected: %v", err)
	}
	if err == nil {
		t.Error("replay against an unreachable target reported success")
	}
}

// TestRunLoadZipfSkew: the zipfian draw must actually skew — the hottest
// unit of the universe should see a clear plurality of the traffic.
func TestRunLoadZipfSkew(t *testing.T) {
	srv, err := codeserver.New(codeserver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := RunLoad(context.Background(), LoadConfig{
		Targets:  []string{ts.URL},
		Workers:  4,
		Requests: 150,
		Duration: time.Minute,
		Units:    8,
		ZipfS:    1.5,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unit 0 is the zipf head. Its runs dominate, which the server-side
	// caches make visible: repeat runs land in the warm-session pool
	// (or, for sessions the pool declines, the loader cache) instead of
	// decoding again — far more runs than loads either way.
	st := srv.Stats()
	if st.Runs != res.Runs {
		t.Errorf("server saw %d runs, client issued %d", st.Runs, res.Runs)
	}
	if st.LoaderHits+st.PoolHits == 0 {
		t.Error("skewed replay produced no loader-cache or pool hits")
	}
}
