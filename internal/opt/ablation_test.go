package opt_test

import (
	"bytes"
	"testing"

	"safetsa/internal/corpus"
	"safetsa/internal/driver"
	"safetsa/internal/opt"
	"safetsa/internal/wire"
)

// TestEveryPassChangesSomeUnit is the ablation that keeps the pipelines
// lean: dropping any one pass must change the v1 wire bytes of at least
// one corpus unit. A pass whose removal leaves every shipped unit
// byte-identical costs compile time and buys nothing, so it should be
// deleted rather than kept. The -O tier ablates every pass of
// Pipeline(); the -O2 tier ablates each pass ModulePipeline() appends
// after it.
func TestEveryPassChangesSomeUnit(t *testing.T) {
	units := corpus.Units()
	encode := func(t *testing.T, files map[string]string, o opt.Options, passes []opt.Pass) []byte {
		t.Helper()
		mod, err := driver.CompileTSASource(files)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.RunPasses(mod, o, passes, nil); err != nil {
			t.Fatal(err)
		}
		return wire.EncodeModule(mod)
	}
	tiers := []struct {
		name  string
		o     opt.Options
		full  []opt.Pass
		first int // index of the first pass this tier ablates
	}{
		{"O", opt.Options{}, opt.Pipeline(), 0},
		{"O2", opt.Options{ModuleLevel: true}, opt.ModulePipeline(), len(opt.Pipeline())},
	}
	for _, tier := range tiers {
		shipped := make([][]byte, len(units))
		for i, u := range units {
			shipped[i] = encode(t, u.Files, tier.o, tier.full)
		}
		for drop := tier.first; drop < len(tier.full); drop++ {
			name := tier.full[drop].Name
			t.Run(tier.name+"/"+name, func(t *testing.T) {
				without := append(append([]opt.Pass{}, tier.full[:drop]...), tier.full[drop+1:]...)
				changed := 0
				for i, u := range units {
					if !bytes.Equal(encode(t, u.Files, tier.o, without), shipped[i]) {
						changed++
					}
				}
				t.Logf("without %s: %d/%d corpus units change", name, changed, len(units))
				if changed == 0 {
					t.Errorf("dropping %s leaves all %d corpus units byte-identical at -%s",
						name, len(units), tier.name)
				}
			})
		}
	}
}
