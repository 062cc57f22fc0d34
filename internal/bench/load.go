package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/obs"
)

// LoadConfig shapes one load-generator replay against a codeserver (or a
// cluster of them): mixed compile/run traffic with zipfian key skew, the
// access pattern of a real mobile-code distribution service where a few
// hot units dominate run traffic while the long tail trickles in.
type LoadConfig struct {
	// Targets are the base URLs to spray traffic over (round-robin by
	// worker draw). At least one is required.
	Targets []string
	// Workers is the concurrent client count (<=0: 8).
	Workers int
	// Duration bounds the timed phase (<=0: 10s) unless Requests is set.
	Duration time.Duration
	// Requests, when >0, replaces Duration with a fixed request quota —
	// deterministic work for CI.
	Requests int
	// Units is the distinct-program universe size (<=0: 16).
	Units int
	// RunFraction is the probability a draw is a run rather than a
	// compile (<=0 or >1: 0.8 — the 80/20 replay mix).
	RunFraction float64
	// ZipfS is the zipfian skew exponent over the unit universe
	// (<=1: 1.2). Higher = hotter hot keys.
	ZipfS float64
	// Seed makes the replay reproducible (0: 1).
	Seed int64
	// MaxSteps is the per-run step budget sent with run requests
	// (<=0: 1_000_000).
	MaxSteps int64
	// MaxAllocs is the per-run allocation budget sent with run requests
	// (0: none — the server's own cap, if any, still applies).
	MaxAllocs int64
	// Tenants is the number of distinct tenant identities the replay
	// spreads run traffic over (<=0: 1). Tenant i is named "tenant-i";
	// each run draw picks one uniformly, and the result digests
	// run latency per tenant — the fairness observable.
	Tenants int
	// Client performs the requests (nil: 30s-timeout default).
	Client *http.Client
}

// ConfigError reports a LoadConfig field whose value is explicitly
// invalid (as opposed to zero, which means "use the default"). RunLoad
// returns it before any network traffic, so a bad flag fails fast with
// a field-level message instead of panicking mid-replay or silently
// running a different workload than asked. Distinguish it from
// transport errors with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("bench: invalid load config: %s %s", e.Field, e.Reason)
}

// validate applies the zero-means-default rules and rejects explicitly
// invalid values. It exists because the old silent clamping let real
// misconfigurations through: ZipfS = NaN passes a `<= 1` guard and makes
// rand.NewZipf return nil (the worker then panics on the nil Zipf), and
// a negative Units used to be "corrected" to the default universe while
// the report claimed the requested one.
func (cfg *LoadConfig) validate() error {
	if len(cfg.Targets) == 0 {
		return &ConfigError{Field: "Targets", Reason: "needs at least one target"}
	}
	if cfg.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("must be positive, got %d", cfg.Workers)}
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.Duration < 0 {
		return &ConfigError{Field: "Duration", Reason: fmt.Sprintf("must be positive, got %v", cfg.Duration)}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Requests < 0 {
		return &ConfigError{Field: "Requests", Reason: fmt.Sprintf("must not be negative, got %d", cfg.Requests)}
	}
	if cfg.Units < 0 {
		return &ConfigError{Field: "Units", Reason: fmt.Sprintf("must be positive, got %d", cfg.Units)}
	}
	if cfg.Units == 0 {
		cfg.Units = 16
	}
	if cfg.RunFraction != 0 && !(cfg.RunFraction > 0 && cfg.RunFraction <= 1) {
		// The negated form also catches NaN, which fails every comparison.
		return &ConfigError{Field: "RunFraction", Reason: fmt.Sprintf("must be in (0, 1], got %v", cfg.RunFraction)}
	}
	if cfg.RunFraction == 0 {
		cfg.RunFraction = 0.8
	}
	if cfg.ZipfS != 0 && !(cfg.ZipfS > 1 && cfg.ZipfS <= 64) {
		// rand.NewZipf returns nil for s <= 1 (and NaN fails every
		// comparison); the upper bound rejects +Inf and absurd skews.
		return &ConfigError{Field: "ZipfS", Reason: fmt.Sprintf("must be in (1, 64], got %v", cfg.ZipfS)}
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxSteps < 0 {
		return &ConfigError{Field: "MaxSteps", Reason: fmt.Sprintf("must be positive, got %d", cfg.MaxSteps)}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000
	}
	if cfg.MaxAllocs < 0 {
		return &ConfigError{Field: "MaxAllocs", Reason: fmt.Sprintf("must not be negative, got %d", cfg.MaxAllocs)}
	}
	if cfg.Tenants < 0 {
		return &ConfigError{Field: "Tenants", Reason: fmt.Sprintf("must be positive, got %d", cfg.Tenants)}
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 1
	}
	return nil
}

// LoadResult is the outcome of one replay: the effective config, the
// outcome counters, and the client-observed latency histogram per stage.
type LoadResult struct {
	Targets     int
	Workers     int
	Units       int
	Tenants     int
	RunFraction float64
	ZipfS       float64
	Elapsed     time.Duration

	Requests       uint64
	Compiles       uint64 // compile requests issued in the timed phase
	CachedCompiles uint64 // ... of which the fleet served from cache
	Runs           uint64 // run requests the server accepted (incl. guest kills)
	Throttled      uint64 // run requests rejected 429 by the fair-admission gate
	Errors         uint64
	ErrorSamples   []string // first few failures, for diagnostics

	// GuestSteps/GuestAllocs total the budget drain the server reported
	// per accepted run — the client-side mirror of the server's guest
	// counters, so budget parity is observable from the load generator.
	GuestSteps  uint64
	GuestAllocs uint64

	CompileHist obs.Histogram
	RunHist     obs.Histogram
	// TenantRunHists digests accepted-run latency per tenant identity
	// ("tenant-0".."tenant-N-1"), index-aligned with the tenant number.
	TenantRunHists []*obs.Histogram
}

// loadProgram is the i-th distinct guest in the key universe: distinct
// source (so a distinct content key), deterministic terminating output.
func loadProgram(i int) map[string]string {
	return map[string]string{"Load.tj": fmt.Sprintf(`
class Load {
    static void main() {
        int acc = %d;
        int i = 0;
        while (i < 25) {
            acc = acc + i * %d;
            i = i + 1;
        }
        System.out.println("load" + acc);
    }
}`, i, i%7+1)}
}

// RunLoad executes the replay: a warmup pass that compiles every unit in
// the universe once (so run draws never race the very first fill), then
// Workers concurrent clients drawing zipfian-skewed mixed traffic until
// the duration or request quota is exhausted. An invalid config is
// rejected up front with a *ConfigError, before any warmup traffic.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	res := &LoadResult{
		Targets:     len(cfg.Targets),
		Workers:     cfg.Workers,
		Units:       cfg.Units,
		Tenants:     cfg.Tenants,
		RunFraction: cfg.RunFraction,
		ZipfS:       cfg.ZipfS,
	}
	tenantNames := make([]string, cfg.Tenants)
	for i := range tenantNames {
		tenantNames[i] = fmt.Sprintf("tenant-%d", i)
		res.TenantRunHists = append(res.TenantRunHists, &obs.Histogram{})
	}

	hashes := make([]string, cfg.Units)
	for i := 0; i < cfg.Units; i++ {
		hash, _, err := loadCompile(ctx, client, cfg.Targets[i%len(cfg.Targets)], loadProgram(i))
		if err != nil {
			return nil, fmt.Errorf("bench: warmup compile %d: %w", i, err)
		}
		hashes[i] = hash
	}

	var (
		requests    atomic.Uint64
		compiles    atomic.Uint64
		cached      atomic.Uint64
		runs        atomic.Uint64
		throttled   atomic.Uint64
		guestSteps  atomic.Uint64
		guestAllocs atomic.Uint64
		errCount    atomic.Uint64
		errMu       sync.Mutex
	)
	recordErr := func(err error) {
		errCount.Add(1)
		errMu.Lock()
		if len(res.ErrorSamples) < 5 {
			res.ErrorSamples = append(res.ErrorSamples, err.Error())
		}
		errMu.Unlock()
	}

	timedCtx := ctx
	if cfg.Requests <= 0 {
		var cancel context.CancelFunc
		timedCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	quota := int64(cfg.Requests) // <=0: unlimited, duration-bounded

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Units-1))
			for {
				if timedCtx.Err() != nil {
					return
				}
				n := requests.Add(1)
				if quota > 0 && int64(n) > quota {
					return
				}
				unit := int(zipf.Uint64())
				target := cfg.Targets[rng.Intn(len(cfg.Targets))]
				if rng.Float64() < cfg.RunFraction {
					ti := rng.Intn(cfg.Tenants)
					t0 := time.Now()
					rr, wasThrottled, err := loadRun(timedCtx, client, target, hashes[unit], &cfg, tenantNames[ti])
					if timedCtx.Err() != nil {
						return // cutoff mid-request: don't score a truncated sample
					}
					if wasThrottled {
						// A 429 is the admission gate working, not a failure:
						// count it apart and keep it out of the latency
						// digests, which score accepted runs.
						throttled.Add(1)
						continue
					}
					d := time.Since(t0)
					res.RunHist.Observe(d)
					res.TenantRunHists[ti].Observe(d)
					runs.Add(1)
					// rr carries the server-reported drain even for guest
					// failures (zero on transport errors), so the parity
					// totals mirror the server's counters exactly.
					guestSteps.Add(uint64(rr.Steps))
					guestAllocs.Add(uint64(rr.Allocs))
					if err != nil {
						recordErr(err)
					}
				} else {
					t0 := time.Now()
					_, wasCached, err := loadCompile(timedCtx, client, target, loadProgram(unit))
					if timedCtx.Err() != nil {
						return
					}
					res.CompileHist.Observe(time.Since(t0))
					compiles.Add(1)
					if err != nil {
						recordErr(err)
					} else if wasCached {
						cached.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	res.Elapsed = time.Since(start)
	res.Compiles = compiles.Load()
	res.CachedCompiles = cached.Load()
	res.Runs = runs.Load()
	res.Throttled = throttled.Load()
	res.Requests = res.Compiles + res.Runs + res.Throttled
	res.GuestSteps = guestSteps.Load()
	res.GuestAllocs = guestAllocs.Load()
	res.Errors = errCount.Load()
	return res, nil
}

func loadCompile(ctx context.Context, client *http.Client, target string, files map[string]string) (hash string, cached bool, err error) {
	body, err := json.Marshal(codeserver.CompileRequest{Files: files})
	if err != nil {
		return "", false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/compile", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return "", false, fmt.Errorf("compile via %s: status %d: %s", target, resp.StatusCode, b)
	}
	var cr codeserver.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return "", false, err
	}
	return cr.Hash, cr.Cached, nil
}

func loadRun(ctx context.Context, client *http.Client, target, hash string, cfg *LoadConfig, tenant string) (rr codeserver.RunResult, throttled bool, err error) {
	body, err := json.Marshal(codeserver.RunRequest{
		MaxSteps:  cfg.MaxSteps,
		MaxAllocs: cfg.MaxAllocs,
		Tenant:    tenant,
	})
	if err != nil {
		return rr, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/run/"+hash, bytes.NewReader(body))
	if err != nil {
		return rr, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return rr, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return rr, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return rr, false, fmt.Errorf("run via %s: status %d: %s", target, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return rr, false, err
	}
	if !rr.OK {
		return rr, false, fmt.Errorf("run via %s: guest failure: %s", target, rr.Error)
	}
	return rr, false, nil
}
