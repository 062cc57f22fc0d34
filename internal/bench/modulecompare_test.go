package bench

import (
	"encoding/json"
	"testing"
)

// TestMeasureModuleOptShape runs the interprocedural-tier measurement
// over the corpus and pins the shape of its report block: every
// pipeline pass accounted, the devirtualizer provably active on the
// dispatch-heavy corpus, and the run rows internally consistent.
func TestMeasureModuleOptShape(t *testing.T) {
	mc, err := MeasureModuleOpt()
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.PassDeltas) == 0 {
		t.Fatal("no pass deltas recorded")
	}
	names := map[string]bool{}
	for _, d := range mc.PassDeltas {
		names[d.Pass] = true
		if d.InstrsBefore <= 0 || d.InstrsAfter <= 0 {
			t.Errorf("pass %s: non-positive instruction totals %d -> %d",
				d.Pass, d.InstrsBefore, d.InstrsAfter)
		}
	}
	for _, want := range []string{"devirt", "inline", "dce2"} {
		if !names[want] {
			t.Errorf("pass %q missing from the delta block", want)
		}
	}
	if mc.Devirtualized == 0 {
		t.Error("no xdispatch site devirtualized over the whole corpus")
	}
	if mc.Inlined == 0 {
		t.Error("no call site inlined over the whole corpus")
	}
	if len(mc.Rows) == 0 {
		t.Fatal("no run rows")
	}
	for _, r := range mc.Rows {
		if r.IntraNanos <= 0 || r.ModuleNanos <= 0 || r.Speedup <= 0 {
			t.Errorf("%s: bad run row %+v", r.Name, r)
		}
	}
	if mc.GeomeanSpeedup <= 0 {
		t.Errorf("geomean speedup %f", mc.GeomeanSpeedup)
	}

	data, err := FormatJSONTimed(nil, nil, nil, nil, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ModuleOpt == nil {
		t.Fatal("module_opt block missing from the JSON report")
	}
	if rep.ModuleOpt.Devirtualized != mc.Devirtualized ||
		len(rep.ModuleOpt.PassDeltas) != len(mc.PassDeltas) ||
		len(rep.ModuleOpt.Rows) != len(mc.Rows) {
		t.Error("JSON block does not round-trip the measurement")
	}
}
