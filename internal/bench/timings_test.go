package bench

import (
	"encoding/json"
	"testing"

	"safetsa/internal/corpus"
)

// TestMeasureAllTimedCounts pins the instrumentation contract of the
// timed corpus run: every stage histogram sees exactly one sample per
// corpus unit, and the JSON report carries the summaries under
// "latencies" with the current schema.
func TestMeasureAllTimedCounts(t *testing.T) {
	rows, tm, err := MeasureAllTimed()
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(corpus.Units()))
	if uint64(len(rows)) != n {
		t.Fatalf("measured %d rows for %d units", len(rows), n)
	}
	sums := tm.Summaries()
	for _, stage := range []string{"frontend", "bytecode", "ssabuild", "optimize", "encode", "decode", "verify", "prepare"} {
		s, ok := sums[stage]
		if !ok {
			t.Errorf("stage %q missing from summaries", stage)
			continue
		}
		if s.Count != n {
			t.Errorf("stage %q count = %d, want %d (one sample per unit)", stage, s.Count, n)
		}
		if s.SumNanos < 0 || s.P50Nanos < 0 || s.P50Nanos > s.P99Nanos {
			t.Errorf("stage %q summary malformed: %+v", stage, s)
		}
	}

	data, err := FormatJSONTimed(rows, tm, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema    string                     `json:"schema"`
		Latencies map[string]json.RawMessage `json:"latencies"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "safetsa-bench-v9" {
		t.Errorf("schema = %q, want safetsa-bench-v9", rep.Schema)
	}
	if len(rep.Latencies) != len(sums) {
		t.Errorf("report carries %d latency stages, want %d", len(rep.Latencies), len(sums))
	}

	// The untimed report stays latency-free (back-compat shape).
	plain, err := FormatJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	var plainRep map[string]json.RawMessage
	if err := json.Unmarshal(plain, &plainRep); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainRep["latencies"]; ok {
		t.Error("untimed report unexpectedly carries latencies")
	}
}
