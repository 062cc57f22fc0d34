package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/corpus"
	"safetsa/internal/obs"
)

func draws(workload string, seed uint64, client, n int) [][]op {
	g := newGenerator(workload, seed, client, len(corpus.Units()))
	out := make([][]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range workloadNames {
		a, b := draws(w, 7, 0, 100), draws(w, 7, 0, 100)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w)
		}
		if reflect.DeepEqual(a, draws(w, 8, 0, 100)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w)
		}
		if reflect.DeepEqual(a, draws(w, 7, 1, 100)) {
			t.Errorf("%s: clients 0 and 1 got the same sequence", w)
		}
	}
}

func TestDrawsAreUniformPerRound(t *testing.T) {
	units := len(corpus.Units())
	seq := draws(compileMiss, 3, 0, 4*units)
	for r := 0; r < 4; r++ {
		seen := make(map[int]bool)
		moduleOpt := 0
		for _, ops := range seq[r*units : (r+1)*units] {
			seen[ops[0].unit] = true
			if ops[0].moduleOpt {
				moduleOpt++
			}
		}
		if len(seen) != units || moduleOpt != units/3 {
			t.Fatalf("round %d: %d distinct units, %d with module_opt; want %d and %d",
				r, len(seen), moduleOpt, units, units/3)
		}
	}
}

func TestSaltedSourceNewKeySameUnit(t *testing.T) {
	opts := codeserver.Options{Optimize: true}
	for _, u := range corpus.Units() {
		s := salted(u.Files, "seed 1 client 0 draw 1")
		if codeserver.KeyFor(s, opts) == codeserver.KeyFor(u.Files, opts) {
			t.Errorf("%s: salting kept the content hash", u.Name)
		}
		plain, err := produce(tracer{}, 0, u.Files, false)
		if err != nil {
			t.Fatal(err)
		}
		salt, err := produce(tracer{}, 0, s, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.wire, salt.wire) {
			t.Errorf("%s: salting changed the unit bytes", u.Name)
		}
	}
}

func TestOracleFlagsWrongResults(t *testing.T) {
	units, err := buildOracle()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{units: units, steps: []int64{100}, allocs: []int64{5}}
	want := units[0].output
	if err := b.checkRun(0, true, "", want, 100, 5); err != nil {
		t.Fatalf("correct run flagged: %v", err)
	}
	for name, bad := range map[string]func() error{
		"wrong output": func() error { return b.checkRun(0, true, "", want+"x", 100, 5) },
		"guest killed": func() error { return b.checkRun(0, false, "step limit", want, 100, 5) },
		"wrong steps":  func() error { return b.checkRun(0, true, "", want, 101, 5) },
		"wrong size": func() error {
			w := units[0].want[0]
			return b.checkCompile(0, false, w.size+1, w.instrs)
		},
		"wrong instrs": func() error {
			w := units[0].want[1]
			return b.checkCompile(0, true, w.size, w.instrs-1)
		},
	} {
		if bad() == nil {
			t.Errorf("%s not flagged", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5},
		{ID: 4, Parent: 1, Start: 8, End: 12},
	}
	self := selfTimes(spans)
	if self[1] != 4 || self[2] != 2 || self[4] != 4 {
		t.Fatalf("self times %v, want 1:4 2:2 4:4", self)
	}
}

// smoke runs the benchmark as the command line would and returns its
// result line and the rest of its output.
func smoke(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line: %v", args, err)
	}
	return res, out.String()
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and measures for several seconds")
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			res, out := smoke(t, "-workload", w, "-seed", "1", "-seconds", "0.5", "-trace", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed (failed_ratio must be 0):\n%s",
					w, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
				if !strings.Contains(out, "attribution of client latency") {
					t.Errorf("%s: traced run printed no attribution table", w)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace %s: metric %s missing or not in %s", w, trace, s.name, s.unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, s.name, m.Value)
				}
			}
		}
	}
}

func TestBenchmarkJSONNamesWhatRunsReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct {
		Name, Unit string
		Bound      float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestPhaseMedians(t *testing.T) {
	p := &phase{d: 10 * time.Second}
	for i := 0; i < 100; i++ {
		// Units 0 and 1 take 1 ms and 3 ms; unit 2 takes 2 ms, but only
		// in odd windows. The odd windows complete twice the requests.
		at := time.Duration(i) * 100 * time.Millisecond
		p.samples = append(p.samples,
			sample{at: at, lat: time.Millisecond, ok: true, cold: i%2 == 0, group: group{unit: 0}},
			sample{at: at, lat: 3 * time.Millisecond, ok: true, group: group{unit: 1}})
		if int(at/time.Second)%2 == 1 {
			p.samples = append(p.samples, sample{at: at, lat: 2 * time.Millisecond, ok: true, group: group{unit: 2}},
				sample{at: at, lat: 2 * time.Millisecond, ok: true, group: group{unit: 2}})
		}
	}
	if got := p.groupMedian(func(sample) bool { return true }); got != 2 {
		t.Errorf("group median %v ms, want 2", got)
	}
	if got := p.groupMedian(func(s sample) bool { return s.cold }); got != 1 {
		t.Errorf("cold group median %v ms, want 1", got)
	}
	if got := p.throughput(); got != 30 {
		t.Errorf("throughput %v, want the median window's 30 rps", got)
	}
	if plain, traced := p.overhead(); plain != 20 || traced != 40 {
		t.Errorf("overhead windows %v and %v rps, want 20 and 40", plain, traced)
	}
}

func TestP99IsMedianOverWindows(t *testing.T) {
	// Three windows of tailWindow requests, then a partial one that joins
	// the third. The second window's tail is slow.
	p := &phase{}
	for i := 0; i < 3*tailWindow+tailWindow/2; i++ {
		lat := time.Millisecond
		if i%50 == 0 {
			lat = 10 * time.Millisecond
			if i/tailWindow == 1 {
				lat = time.Second
			}
		}
		p.samples = append(p.samples, sample{at: time.Duration(i), lat: lat})
	}
	if got := p.p99(); got != 10 {
		t.Errorf("p99 %v ms, want the middle window's 10", got)
	}
}

func TestAttributionAddsUpToClientMean(t *testing.T) {
	rec := newRecorder()
	rec.spans = []span{
		{ID: 1, Req: 1, Name: "client.http", Start: 0, End: 10},
		{ID: 2, Req: 1, Parent: 1, Name: "codeserver.handler", Start: 1, End: 9},
	}
	// A streaming run: exec lies inside wire_decode_stream's interval.
	rec.addTrace(-1, obs.TraceSnapshot{Name: "run_stream", StartUnixNanos: rec.t0.UnixNano() + 2, DurationNanos: 6,
		Spans: []obs.SpanSnapshot{
			{Name: "wire_decode_stream", OffsetNanos: 0, DurationNanos: 5},
			{Name: "exec", OffsetNanos: 1, DurationNanos: 3},
		}})
	a := attribute(rec.snapshot(), 0, 0)
	want := map[string]float64{"codeserver": 1e-6, "wire": 2e-6, "interp": 3e-6}
	for layer, v := range want {
		if math.Abs(a.layers[layer]-v) > 1e-12 {
			t.Errorf("%s: %v ms, want %v", layer, a.layers[layer], v)
		}
	}
	if math.Abs(a.residual-2e-6) > 1e-12 || math.Abs(a.unattributed-2e-6) > 1e-12 {
		t.Errorf("residual %v ms, unattributed %v ms; want 2e-6 each", a.residual, a.unattributed)
	}
	sum := a.residual + a.unattributed
	for _, v := range a.layers {
		sum += v
	}
	if math.Abs(sum-a.clientMean) > 1e-12 {
		t.Errorf("rows add up to %v ms, client mean is %v ms", sum, a.clientMean)
	}
}
