// Command servebench is the end-to-end benchmark of the SafeTSA code
// service. It starts an in-process codeserver (or a 3-node cluster
// fleet) on loopback HTTP with safetsad's default configuration, drives
// it with two closed-loop clients, checks every answer against an
// oracle, and prints one JSON result line. With -trace 1 it instead
// attributes client latency to the repository's layers. README.md
// describes the workloads and every metric.
//
//	servebench -workload run-hot -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"safetsa/internal/codeserver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setups is how often a plain run builds its fixture; setup_s is the
// median.
const setups = 15

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Uint64Var(&cfg.seed, "seed", 1, "seed of the request sequence")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	fl.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fl.StringVar(&cfg.spans, "spans", "", "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if !slices.Contains(workloadNames, cfg.workload) || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "servebench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames, ", "))
		return 2
	}
	res, err := measure(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func measure(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	start := time.Now()
	units, err := buildOracle()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "servebench: oracle over %d corpus units in %.2fs\n", len(units), time.Since(start).Seconds())
	host := hostRecord(cfg)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hj)
	b := &bench{workload: cfg.workload, seed: cfg.seed, units: units}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return measureTraced(ctx, b, d, cfg, w)
	}
	return measurePlain(ctx, b, d, w)
}

// measurePlain builds the fixture setups times, keeps the last, and
// measures the end-to-end metrics over one untraced phase.
func measurePlain(ctx context.Context, b *bench, d time.Duration, w io.Writer) (*result, error) {
	b.traces = defaultTraces
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b.fx != nil {
			b.fx.close()
		}
		runtime.GC()
		start := time.Now()
		if err := b.setup(ctx); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.fx.close()
	p := b.drive(ctx, d, nil, false)
	heap := heapLiveMB()
	cold := p.groupMedian(func(s sample) bool { return s.cold })
	if b.workload == runHot {
		cold = b.coldSetupP50()
	}
	values := map[string]float64{
		"setup_s":        median(setupS),
		"throughput_rps": p.throughput(),
		"latency_p50_ms": p.groupMedian(func(sample) bool { return true }),
		"latency_p99_ms": p.p99(),
		"cold_p50_ms":    cold,
		"unit_bytes":     b.unitBytes(),
		"heap_live_mb":   heap,
	}
	m := metrics(endToEnd, values)
	st, _ := b.fx.stats()
	ok := p.failed == 0 && st.PeerFillRejects == 0
	coldN := 0
	for _, s := range p.samples {
		if s.cold {
			coldN++
		}
	}
	fmt.Fprintf(w, "servebench: %s seed %d: %d requests in %.2fs by %d closed-loop clients, %d failed (failed_ratio %.4f), %d cold samples, p99 over %d windows of %d requests\n",
		b.workload, b.seed, p.attempted, p.elapsed.Seconds(), clients, p.failed,
		float64(p.failed)/float64(max(p.attempted, 1)), coldN, max(1, len(p.samples)/tailWindow), tailWindow)
	if err := p.errs.err(); err != nil {
		fmt.Fprintln(w, "servebench: failures:", err)
	}
	if st.PeerFillRejects != 0 {
		fmt.Fprintf(w, "servebench: %d peer fills rejected\n", st.PeerFillRejects)
	}
	printMetrics(w, m)
	return &result{Correct: ok, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// measureTraced builds one fixture whose servers keep every request
// trace. On it, it measures the tracing overhead over d/2 with tracing
// switched on and off in alternate windows, then runs a traced phase of
// d/2. The layers' figures come from the servers' traces and /stats
// deltas over the traced phase. Last, it replays the traced phase's
// requests for at most d/2 to time what the server does not split.
func measureTraced(ctx context.Context, b *bench, d time.Duration, cfg config, w io.Writer) (*result, error) {
	b.traces = tracedRing
	if err := b.setup(ctx); err != nil {
		return nil, err
	}
	defer b.fx.close()
	orec := newRecorder()
	b.fx.rec.Store(orec)
	over := b.drive(ctx, d/2, orec, true)

	rec := newRecorder()
	b.fx.rec.Store(rec)
	st0, fw0 := b.fx.stats()
	from := time.Now()
	traced := b.drive(ctx, d/2, rec, false)
	to := time.Now()
	b.fx.rec.Store(nil)
	st1, fw1 := b.fx.stats()
	trs, err := b.fx.traces(ctx, from, to)
	if err != nil {
		return nil, err
	}
	for i, tr := range trs {
		rec.addTrace(-int64(i+1), tr)
	}

	rp, err := newReplayer(ctx, b, rec)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	rp.replay(traced.log, d/2)
	spans := rec.snapshot()
	a := attribute(spans, traced.groupMedian(func(sample) bool { return true }), rp.replayed)

	v := make(map[string]float64)
	for name, mean := range a.replay {
		v[name+"_ms"] = mean
	}
	if rp.replayed > 0 {
		for name, n := range rp.passRemoved {
			v["opt.pass."+name+"_removed"] = float64(n) / float64(rp.replayed)
		}
		v["opt.checks_removed"] = float64(rp.checksRemoved) / float64(rp.replayed)
	}
	v["interp.steps_per_run"] = perRunMean(b.steps)
	v["interp.allocs_per_run"] = perRunMean(b.allocs)

	reqs := float64(max(a.requests, 1))
	for metric, name := range map[string]string{
		"lang.frontend_ms":  "frontend",
		"ssabuild.build_ms": "ssabuild",
		"opt.optimize_ms":   "optimize",
		"wire.encode_ms":    "encode",
		"cluster.fetch_ms":  "peer_fill",
	} {
		v[metric] = serverTotals(spans)[name] / reqs
	}
	perReq := func(nanos1, nanos0 int64) float64 { return float64(nanos1-nanos0) / 1e6 / reqs }
	v["wire.decode_ms"] = perReq(st1.DecodeNanos, st0.DecodeNanos)
	v["core.verify_ms"] = perReq(st1.VerifyNanos, st0.VerifyNanos)
	v["interp.prepare_ms"] = perReq(st1.PrepareNanos, st0.PrepareNanos)
	v["interp.backend_ms"] = perReq(st1.CompileBackendNanos, st0.CompileBackendNanos)
	v["codeserver.compile_ms"] = perReq(st1.CompileNanos, st0.CompileNanos)
	v["codeserver.run_ms"] = perReq(st1.RunNanos, st0.RunNanos)
	v["codeserver.stream_decode_ms"] = perReq(st1.WireDecodeStreamNanos, st0.WireDecodeStreamNanos)
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	fills := func(st codeserver.Stats) uint64 { return st.CacheHits + st.Compiles + st.PeerFills + st.Coalesced }
	v["codeserver.store_hit_ratio"] = ratio(st1.CacheHits-st0.CacheHits, fills(st1)-fills(st0))
	loads := func(st codeserver.Stats) uint64 { return st.LoaderHits + st.Loads + st.LoadErrors }
	v["codeserver.loader_hit_ratio"] = ratio(st1.LoaderHits-st0.LoaderHits, loads(st1)-loads(st0))
	v["codeserver.pool_hit_ratio"] = ratio(st1.PoolHits-st0.PoolHits, st1.Runs-st0.Runs)
	v["codeserver.pool_builds"] = float64(st1.PoolBuilds - st0.PoolBuilds)
	v["codeserver.coalesced"] = float64(st1.Coalesced - st0.Coalesced)
	if b.workload == fleetChurn {
		compiles := 0
		for _, l := range traced.log {
			for _, r := range l {
				if r.op.kind == opCompile {
					compiles++
				}
			}
		}
		v["cluster.forward_ratio"] = ratio(fw1-fw0, uint64(compiles))
		v["cluster.peer_fills"] = float64(st1.PeerFills - st0.PeerFills)
		v["cluster.peer_fill_rejects"] = float64(st1.PeerFillRejects)
	}
	v["codeserver.residual_ms"] = a.residual
	plainRPS, tracedRPS := over.overhead()
	v["trace.overhead_pct"] = 100 * (plainRPS - tracedRPS) / plainRPS
	m := metrics(perLayer, v)

	fmt.Fprintf(w, "servebench: %s seed %d traced: overhead phase %.1f rps untraced, %.1f rps traced (medians over alternate %v windows); traced phase %d requests, %d server traces, %d replayed\n",
		b.workload, b.seed, plainRPS, tracedRPS, overheadWindow, traced.attempted, len(trs), rp.replayed)
	a.print(w, b.workload)
	for _, e := range []error{over.errs.err(), traced.errs.err(), rp.errs.err()} {
		if e != nil {
			fmt.Fprintln(w, "servebench: failures:", e)
		}
	}
	if cfg.spans != "" {
		if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "servebench: %d spans written to %s\n", len(spans), path)
	}
	printMetrics(w, m)
	failed := over.failed + traced.failed + rp.failed
	return &result{
		Correct:   failed == 0 && st1.PeerFillRejects == 0,
		Attempted: over.attempted + traced.attempted + rp.replayed,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// metrics gives every metric of specs its value (0 where v has none).
func metrics(specs []metricSpec, v map[string]float64) map[string]metric {
	m := make(map[string]metric, len(specs))
	for _, spec := range specs {
		m[spec.name] = metric{v[spec.name], spec.unit}
	}
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// hostRecord identifies the machine, toolchain and code a result came
// from.
func hostRecord(cfg config) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit of the working directory, or "none" outside
// a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics a plain and a traced run
// report; BENCHMARK.json lists the same names.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"unit_bytes", "B"},
	{"heap_live_mb", "MB"},
}

var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"lang.frontend_ms", "ms"},
		{"ssabuild.build_ms", "ms"},
		{"opt.optimize_ms", "ms"},
	}
	for _, p := range []string{"constprop", "cse", "constprop2", "cse2", "dce", "devirt",
		"inline", "constprop3", "cse3", "checkelim", "dce2"} {
		ms = append(ms, metricSpec{"opt.pass." + p + "_ms", "ms"}, metricSpec{"opt.pass." + p + "_removed", "count"})
	}
	return append(ms,
		metricSpec{"opt.checks_removed", "count"},
		metricSpec{"wire.encode_ms", "ms"},
		metricSpec{"wire.decode_ms", "ms"},
		metricSpec{"wire.first_func_ms", "ms"},
		metricSpec{"core.verify_ms", "ms"},
		metricSpec{"interp.prepare_ms", "ms"},
		metricSpec{"interp.backend_ms", "ms"},
		metricSpec{"interp.snapshot_ms", "ms"},
		metricSpec{"interp.load_ms", "ms"},
		metricSpec{"interp.static_init_ms", "ms"},
		metricSpec{"interp.main_ms", "ms"},
		metricSpec{"interp.clone_ms", "ms"},
		metricSpec{"interp.steps_per_run", "count"},
		metricSpec{"interp.allocs_per_run", "count"},
		metricSpec{"codeserver.compile_ms", "ms"},
		metricSpec{"codeserver.run_ms", "ms"},
		metricSpec{"codeserver.stream_decode_ms", "ms"},
		metricSpec{"codeserver.store_hit_ratio", "ratio"},
		metricSpec{"codeserver.loader_hit_ratio", "ratio"},
		metricSpec{"codeserver.pool_hit_ratio", "ratio"},
		metricSpec{"codeserver.pool_builds", "count"},
		metricSpec{"codeserver.coalesced", "count"},
		metricSpec{"codeserver.residual_ms", "ms"},
		metricSpec{"cluster.forward_ratio", "ratio"},
		metricSpec{"cluster.peer_fills", "count"},
		metricSpec{"cluster.fetch_ms", "ms"},
		metricSpec{"cluster.peer_fill_rejects", "count"},
		metricSpec{"trace.overhead_pct", "%"},
	)
}()
