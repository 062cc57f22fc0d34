package bench

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// RunRow is the execution-latency comparison for one corpus unit: the
// same optimized, round-tripped module run to completion on the
// reference CST evaluator and the closure-threaded compiled engine.
// Latencies are best-of-K wall times for a full session (load, static
// init, main); Speedup is ReferenceNanos / CompiledNanos.
type RunRow struct {
	Name           string
	ReferenceNanos int64
	CompiledNanos  int64
	Speedup        float64
}

// RunComparison aggregates the per-unit engine comparison over the
// corpus. GeomeanSpeedup is the geometric mean of the per-unit
// compiled-over-reference speedups — the headline number recorded in
// the BENCH_*.json trajectory.
type RunComparison struct {
	BestOf         int
	Rows           []RunRow
	GeomeanSpeedup float64
}

// runComparisonBestOf is the number of timed sessions per engine per
// unit; the minimum is reported, which is the standard way to strip
// scheduler noise from short single-threaded runs.
const runComparisonBestOf = 5

// MeasureRunComparison times every runnable corpus unit on both
// engines. Each unit is compiled, optimized, and round-tripped through
// the wire format first (so the measured module is exactly what a
// consumer would hold), verified, prepared, and backend-compiled once,
// and then run runComparisonBestOf times per engine. The engines'
// outputs must be byte-identical; any divergence is an error, making
// the benchmark double as a whole-corpus equivalence check.
func MeasureRunComparison() (*RunComparison, error) {
	rc := &RunComparison{BestOf: runComparisonBestOf}
	logSum := 0.0
	for _, u := range corpus.Units() {
		mod, _, err := driver.CompileTSASourceOpt(u.Files)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", u.Name, err)
		}
		dec, err := wire.DecodeModule(wire.EncodeModule(mod))
		if err != nil {
			return nil, fmt.Errorf("%s: decode: %w", u.Name, err)
		}
		if err := dec.Verify(core.VerifyOptions{}); err != nil {
			return nil, fmt.Errorf("%s: verify: %w", u.Name, err)
		}
		if dec.Entry < 0 {
			continue // nothing to run
		}
		prep, err := interp.Prepare(dec)
		if err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", u.Name, err)
		}
		comp, err := interp.Compile(dec, prep)
		if err != nil {
			return nil, fmt.Errorf("%s: compile backend: %w", u.Name, err)
		}

		refNanos, refOut, err := bestOf(runComparisonBestOf, func(env *rt.Env) (*interp.Loader, error) {
			return interp.LoadTrusted(dec, env)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", u.Name, err)
		}
		compNanos, compOut, err := bestOf(runComparisonBestOf, func(env *rt.Env) (*interp.Loader, error) {
			return interp.LoadTrustedCompiled(dec, comp, env)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: compiled run: %w", u.Name, err)
		}
		if refOut != compOut {
			return nil, fmt.Errorf("%s: compiled engine output diverges:\n%q\nvs\n%q", u.Name, refOut, compOut)
		}

		speedup := float64(refNanos) / float64(compNanos)
		rc.Rows = append(rc.Rows, RunRow{
			Name:           u.Name,
			ReferenceNanos: refNanos,
			CompiledNanos:  compNanos,
			Speedup:        speedup,
		})
		logSum += math.Log(speedup)
	}
	if len(rc.Rows) > 0 {
		rc.GeomeanSpeedup = math.Exp(logSum / float64(len(rc.Rows)))
	}
	return rc, nil
}

// bestOf runs k full sessions through load and returns the minimum wall
// time plus the (identical) printed output. The heap is quiesced before
// every timed session (as testing.B does before a benchmark) so that
// garbage left by the previously measured engine cannot bill its
// collection to this one — without it the last-measured engine absorbs
// the GC assists for both.
func bestOf(k int, load func(env *rt.Env) (*interp.Loader, error)) (int64, string, error) {
	best := int64(math.MaxInt64)
	var out string
	for i := 0; i < k; i++ {
		runtime.GC()
		var buf bytes.Buffer
		env := &rt.Env{Out: &buf}
		start := time.Now()
		l, err := load(env)
		if err != nil {
			return 0, "", err
		}
		err = l.RunMain()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, "", err
		}
		if elapsed < best {
			best = elapsed
		}
		if i == 0 {
			out = buf.String()
		} else if buf.String() != out {
			return 0, "", fmt.Errorf("output varies across repeat runs")
		}
	}
	if best < 1 {
		best = 1 // avoid zero-division on sub-nanosecond clocks
	}
	return best, out, nil
}
