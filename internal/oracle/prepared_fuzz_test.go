package oracle_test

import (
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/oracle"
	"safetsa/internal/wire"
)

// preparedSeedNames are the compiledSeedSources entries aimed at the
// prepared lowering's hard cases (deep dominator chains, phi-heavy loop
// nests, budget kills mid-loop, exceptions across frames), in the order
// their seeds are added to FuzzPreparedDifferential.
var preparedSeedNames = []string{
	"deep_dominator_chain", "phi_heavy_loops", "budget_kill_steps",
	"budget_kill_allocs", "exceptions_across_frames",
}

// preparedSeedModules compiles every prepared seed (and a few generated
// fuzz programs), optimized and not, into wire bytes.
func preparedSeedModules(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(files map[string]string) {
		mod, err := driver.CompileTSASource(files)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, wire.EncodeModule(mod))
		if _, err := driver.OptimizeModule(mod); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, wire.EncodeModule(mod))
	}
	for _, name := range preparedSeedNames {
		add(map[string]string{"Main.tj": compiledSeedSources[name]})
	}
	for _, seed := range []string{"p0", "p1"} {
		add(corpus.GenerateFuzz(seed, 4, 3))
	}
	return seeds
}

// FuzzPreparedDifferential fuzzes the deferred-binding oracle: every
// byte string that passes wire admission must behave identically on the
// reference evaluator and on a session bound from the prepared lowering
// alone (LoadTrustedDeferred with no compiled form, static init run by
// the caller). The checked-in testdata/fuzz corpus replays on every
// plain `go test`.
func FuzzPreparedDifferential(f *testing.F) {
	for _, s := range preparedSeedModules(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		if err := oracle.DeferredDifferential(data, fuzzBudgets); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPreparedDifferentialSeeds replays the prepared seed set directly
// (without the fuzz driver), so the deferred-binding parity holds in
// every ordinary test run, not only under -fuzz.
func TestPreparedDifferentialSeeds(t *testing.T) {
	for _, name := range preparedSeedNames {
		t.Run(name, func(t *testing.T) {
			mod, err := driver.CompileTSASource(map[string]string{"Main.tj": compiledSeedSources[name]})
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.DeferredDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
			if _, err := driver.OptimizeModule(mod); err != nil {
				t.Fatal(err)
			}
			if err := oracle.DeferredDifferential(wire.EncodeModule(mod), fuzzBudgets); err != nil {
				t.Fatal(err)
			}
		})
	}
}
