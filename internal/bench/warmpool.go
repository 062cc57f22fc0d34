package bench

import (
	"fmt"
	"math"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// WarmRow is the warm-vs-cold comparison for one unit on the compiled
// engine: ColdNanos is a full session (load, static init, main) built
// from scratch; WarmNanos is the same session served as a clone of a
// post-static-init snapshot (load, clone statics+heap, replay init
// output, main). Speedup is ColdNanos / WarmNanos. InitHeavy marks the
// synthetic units whose static initializers dominate, where the pool's
// win concentrates.
type WarmRow struct {
	Name      string
	InitHeavy bool
	InitSteps int64
	ColdNanos int64
	WarmNanos int64
	Speedup   float64
}

// WarmPoolComparison aggregates the warm-session-pool benchmark.
// GeomeanSpeedup covers every row; GeomeanInitHeavySpeedup only the
// init-heavy synthetic rows — the number the pool exists for.
type WarmPoolComparison struct {
	BestOf                  int
	Rows                    []WarmRow
	GeomeanSpeedup          float64
	GeomeanInitHeavySpeedup float64
}

// warmSyntheticUnits are init-heavy programs: big static tables built by
// static initializer loops, with a deliberately small main. These model
// the unit shape the warm pool targets — per-request init cost that the
// snapshot amortizes to a heap clone.
func warmSyntheticUnits() []corpus.Unit {
	mk := func(name string, tables, size int) corpus.Unit {
		src := "class " + name + " {\n"
		for i := 0; i < tables; i++ {
			src += fmt.Sprintf("    static int[] t%d = %s.build(%d);\n", i, name, i+3)
		}
		src += fmt.Sprintf(`    static int[] build(int k) {
        int[] t = new int[%d];
        for (int i = 0; i < %d; i++) {
            t[i] = (i * k + k) %% 65521;
        }
        return t;
    }
    static void main() {
        System.out.println(%s.t0[7] + %s.t%d[11]);
    }
}
`, size, size, name, name, tables-1)
		return corpus.Unit{Name: name, Files: map[string]string{name + ".tj": src}}
	}
	return []corpus.Unit{
		mk("WarmTables4x4096", 4, 4096),
		mk("WarmTables8x2048", 8, 2048),
		mk("WarmTables2x16384", 2, 16384),
	}
}

// MeasureWarmPool times cold (fresh static init) versus warm (snapshot
// clone) sessions on the compiled engine, over the runnable corpus plus
// the init-heavy synthetic units. Each unit is compiled, optimized,
// round-tripped through the wire format, verified, prepared, and
// backend-compiled once; the snapshot is built and verified once
// (as codeserver's pool does) and then both paths run bestOf-timed full
// sessions whose outputs must be byte-identical — the benchmark doubles
// as a pooled-parity check.
func MeasureWarmPool() (*WarmPoolComparison, error) {
	wc := &WarmPoolComparison{BestOf: runComparisonBestOf}
	units := corpus.Units()
	heavyFrom := len(units)
	units = append(units, warmSyntheticUnits()...)
	logSum, logSumHeavy, heavy := 0.0, 0.0, 0
	for i, u := range units {
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
			continue
		}
		prep, err := interp.Prepare(dec)
		if err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", u.Name, err)
		}
		comp, err := interp.Compile(dec, prep)
		if err != nil {
			return nil, fmt.Errorf("%s: compile backend: %w", u.Name, err)
		}

		snap, err := buildSnapshot(dec, comp)
		if err != nil {
			return nil, fmt.Errorf("%s: snapshot: %w", u.Name, err)
		}

		coldNanos, coldOut, err := bestOf(runComparisonBestOf, func(env *rt.Env) (*interp.Loader, error) {
			return interp.LoadTrustedCompiled(dec, comp, env)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: cold run: %w", u.Name, err)
		}
		warmNanos, warmOut, err := bestOf(runComparisonBestOf, func(env *rt.Env) (*interp.Loader, error) {
			return snap.NewSession(env)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: warm run: %w", u.Name, err)
		}
		if coldOut != warmOut {
			return nil, fmt.Errorf("%s: warm session output diverges:\n%q\nvs\n%q", u.Name, coldOut, warmOut)
		}

		speedup := float64(coldNanos) / float64(warmNanos)
		row := WarmRow{
			Name:      u.Name,
			InitHeavy: i >= heavyFrom,
			InitSteps: snap.InitSteps(),
			ColdNanos: coldNanos,
			WarmNanos: warmNanos,
			Speedup:   speedup,
		}
		wc.Rows = append(wc.Rows, row)
		logSum += math.Log(speedup)
		if row.InitHeavy {
			logSumHeavy += math.Log(speedup)
			heavy++
		}
	}
	if len(wc.Rows) > 0 {
		wc.GeomeanSpeedup = math.Exp(logSum / float64(len(wc.Rows)))
	}
	if heavy > 0 {
		wc.GeomeanInitHeavySpeedup = math.Exp(logSumHeavy / float64(heavy))
	}
	return wc, nil
}

// buildSnapshot runs static init once and freezes it, verified, exactly
// as codeserver's pool publishes snapshots.
func buildSnapshot(mod *core.Module, comp *interp.Compiled) (*interp.Snapshot, error) {
	var out warmInitBuf
	l, err := interp.LoadTrustedDeferred(mod, nil, comp, &rt.Env{Out: &out})
	if err != nil {
		return nil, err
	}
	if err := l.RunStaticInit(); err != nil {
		return nil, err
	}
	snap, err := l.Snapshot(out.b)
	if err != nil {
		return nil, err
	}
	if err := snap.Verify(); err != nil {
		return nil, err
	}
	return snap, nil
}

// warmInitBuf is a minimal capture buffer for init output.
type warmInitBuf struct{ b []byte }

func (w *warmInitBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
