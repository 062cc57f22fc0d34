package bench

import (
	"fmt"
	"math"

	"safetsa/internal/core"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// PassDelta is one row of the Figure-6-style per-pass block: the total
// corpus instruction count entering and leaving one named pass of the
// interprocedural pipeline. Inlining legitimately grows the count; the
// block makes that visible instead of hiding it in an end-to-end total.
type PassDelta struct {
	Pass         string
	InstrsBefore int
	InstrsAfter  int
}

// ModuleRunRow is the run-latency comparison for one corpus unit: the
// same unit built by the intraprocedural tier and by the module-level
// tier, each round-tripped through the wire format and run to
// completion on the compiled engine. Speedup is IntraNanos/ModuleNanos.
type ModuleRunRow struct {
	Name        string
	IntraNanos  int64
	ModuleNanos int64
	Speedup     float64
}

// ModuleOptComparison aggregates the interprocedural-tier measurement
// over the corpus: what each pass did to the instruction count, what
// the new passes found (devirtualized sites, inlined calls), and what
// the merged bodies buy at run time against the paper's measured
// intraprocedural configuration.
type ModuleOptComparison struct {
	BestOf     int
	PassDeltas []PassDelta

	Devirtualized int
	Inlined       int

	Rows           []ModuleRunRow
	GeomeanSpeedup float64
}

// MeasureModuleOpt measures the interprocedural tier over every corpus
// unit: per-pass instruction-count deltas (verifier re-checked after
// each pass, so the measurement doubles as a whole-corpus metamorphic
// check), then best-of-K full sessions of the module-level versus
// intraprocedural builds on the compiled engine. Output divergence
// between the two tiers is an error.
func MeasureModuleOpt() (*ModuleOptComparison, error) {
	mc := &ModuleOptComparison{BestOf: runComparisonBestOf}
	passes := opt.ModulePipeline()
	deltas := make([]PassDelta, len(passes))
	for i, p := range passes {
		deltas[i].Pass = p.Name
	}
	logSum := 0.0
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", u.Name, err)
		}
		idx, before := 0, mod.NumInstrs()
		st, err := opt.RunPasses(mod, opt.Options{ModuleLevel: true}, passes,
			func(pass string) error {
				if err := mod.Verify(core.VerifyOptions{}); err != nil {
					return fmt.Errorf("%s: verifier rejects after %s: %w", u.Name, pass, err)
				}
				after := mod.NumInstrs()
				deltas[idx].InstrsBefore += before
				deltas[idx].InstrsAfter += after
				idx, before = idx+1, after
				return nil
			})
		if err != nil {
			return nil, err
		}
		mc.Devirtualized += st.Devirtualized
		mc.Inlined += st.Inlined

		intra, _, err := driver.CompileTSASourceOpt(u.Files)
		if err != nil {
			return nil, fmt.Errorf("%s: intraprocedural compile: %w", u.Name, err)
		}
		intraNanos, intraOut, err := timedCompiledSessions(u.Name, intra)
		if err != nil {
			return nil, err
		}
		if intraNanos == 0 {
			continue // nothing to run
		}
		modNanos, modOut, err := timedCompiledSessions(u.Name, mod)
		if err != nil {
			return nil, err
		}
		if intraOut != modOut {
			return nil, fmt.Errorf("%s: tier outputs diverge:\n%q\nvs\n%q", u.Name, intraOut, modOut)
		}
		speedup := float64(intraNanos) / float64(modNanos)
		mc.Rows = append(mc.Rows, ModuleRunRow{
			Name: u.Name, IntraNanos: intraNanos, ModuleNanos: modNanos, Speedup: speedup,
		})
		logSum += math.Log(speedup)
	}
	mc.PassDeltas = deltas
	if len(mc.Rows) > 0 {
		mc.GeomeanSpeedup = math.Exp(logSum / float64(len(mc.Rows)))
	}
	return mc, nil
}

// timedCompiledSessions round-trips a built module through the wire
// format (the measured artifact is exactly what a consumer would hold),
// prepares and backend-compiles it once, and times best-of-K full
// sessions on the compiled engine. Units without an entry point return
// (0, "", nil).
func timedCompiledSessions(name string, mod *core.Module) (int64, string, error) {
	dec, err := wire.DecodeModule(wire.EncodeModule(mod))
	if err != nil {
		return 0, "", fmt.Errorf("%s: decode: %w", name, err)
	}
	if err := dec.Verify(core.VerifyOptions{}); err != nil {
		return 0, "", fmt.Errorf("%s: verify: %w", name, err)
	}
	if dec.Entry < 0 {
		return 0, "", nil
	}
	prep, err := interp.Prepare(dec)
	if err != nil {
		return 0, "", fmt.Errorf("%s: prepare: %w", name, err)
	}
	comp, err := interp.Compile(dec, prep)
	if err != nil {
		return 0, "", fmt.Errorf("%s: compile backend: %w", name, err)
	}
	nanos, out, err := bestOf(runComparisonBestOf, func(env *rt.Env) (*interp.Loader, error) {
		return interp.LoadTrustedCompiled(dec, comp, env)
	})
	if err != nil {
		return 0, "", fmt.Errorf("%s: compiled run: %w", name, err)
	}
	return nanos, out, nil
}
