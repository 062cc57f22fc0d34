package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"safetsa/internal/codeserver"
	"safetsa/internal/corpus"
	"safetsa/internal/driver"
)

// expectation is what /compile must answer for a corpus unit.
type expectation struct {
	size, instrs int
}

// corpusUnit is one corpus program and the oracle's expected results.
type corpusUnit struct {
	name  string
	files map[string]string
	// output is what the reference engine prints running the
	// unoptimized module; every /run and /run-stream must match it.
	output string
	// want[0] is the unit compiled with optimize, want[1] with
	// optimize and module_opt.
	want [2]expectation
}

// buildOracle computes every corpus unit's expected output with the
// reference engine on the unoptimized module, and the size and
// instruction count of each unit /compile serves.
func buildOracle() ([]corpusUnit, error) {
	var units []corpusUnit
	for _, u := range corpus.Units() {
		mod, err := driver.CompileTSASource(u.Files)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", u.Name, err)
		}
		out, err := driver.RunModule(mod, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: reference run: %w", u.Name, err)
		}
		cu := corpusUnit{name: u.Name, files: u.Files, output: out}
		for i, moduleOpt := range []bool{false, true} {
			b, err := produce(tracer{}, 0, u.Files, moduleOpt)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s: %w", u.Name, err)
			}
			cu.want[i] = expectation{size: len(b.wire), instrs: b.instrs}
		}
		units = append(units, cu)
	}
	return units, nil
}

func optIndex(moduleOpt bool) int {
	if moduleOpt {
		return 1
	}
	return 0
}

// bench is one workload run: the oracle, the fixture and what set-up
// learned about it.
type bench struct {
	workload string
	seed     uint64
	units    []corpusUnit
	fx       *fixture
	// traces is the size of each server's request trace ring.
	traces int
	// gens are the clients' request generators. Successive phases of a
	// run continue their sequences, so no salted source repeats.
	gens []*generator

	// hashes and wires are the units set-up compiled with optimize
	// (run-hot and admit-stream), indexed like units.
	hashes []string
	wires  [][]byte
	// steps and allocs are what the server reported for one run of
	// each unit in set-up; every later run must report the same.
	steps, allocs []int64
	// coldSetup holds, per unit, the latency of its first run in each
	// set-up.
	coldSetup [][]time.Duration
}

// check compares a run's result with the oracle and with the drain the
// unit reported in set-up.
func (b *bench) checkRun(u int, ok bool, errMsg, output string, steps, allocs int64) error {
	cu := &b.units[u]
	switch {
	case !ok:
		return fmt.Errorf("%s: guest failed: %s", cu.name, errMsg)
	case output != cu.output:
		return fmt.Errorf("%s: output %q, want %q", cu.name, clip(output), clip(cu.output))
	case b.steps[u] >= 0 && (steps != b.steps[u] || allocs != b.allocs[u]):
		return fmt.Errorf("%s: drained %d steps/%d allocs, set-up drained %d/%d",
			cu.name, steps, allocs, b.steps[u], b.allocs[u])
	}
	return nil
}

func (b *bench) checkCompile(u int, moduleOpt bool, size, instrs int) error {
	want := b.units[u].want[optIndex(moduleOpt)]
	if size != want.size || instrs != want.instrs {
		return fmt.Errorf("%s: compiled to %d bytes/%d instrs, want %d/%d",
			b.units[u].name, size, instrs, want.size, want.instrs)
	}
	return nil
}

// noteRun records a set-up run's drain, or checks it against an
// earlier one.
func (b *bench) noteRun(u int, ok bool, errMsg, output string, steps, allocs int64) error {
	if b.steps[u] < 0 {
		b.steps[u], b.allocs[u] = steps, allocs
	}
	return b.checkRun(u, ok, errMsg, output, steps, allocs)
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// setup starts the workload's fixture and warms it: every cache the
// workload is meant to hit is filled, and every code path it takes has
// run once.
func (b *bench) setup(ctx context.Context) error {
	n := 1
	if b.workload == fleetChurn {
		n = fleetSize
	}
	fx, err := startFixture(n, b.traces)
	if err != nil {
		return err
	}
	b.fx = fx
	b.steps = make([]int64, len(b.units))
	b.allocs = make([]int64, len(b.units))
	for i := range b.steps {
		b.steps[i] = -1
	}
	if b.coldSetup == nil {
		b.coldSetup = make([][]time.Duration, len(b.units))
	}
	b.hashes = make([]string, len(b.units))
	b.wires = make([][]byte, len(b.units))
	for u := range b.units {
		if err := b.warm(ctx, u); err != nil {
			fx.close()
			b.fx = nil
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

func (b *bench) warm(ctx context.Context, u int) error {
	fx, cu := b.fx, &b.units[u]
	switch b.workload {
	case compileMiss:
		for _, moduleOpt := range []bool{false, true} {
			resp, err := fx.compile(ctx, 0, salted(cu.files, "set-up"), moduleOpt, hop{})
			if err != nil {
				return err
			}
			if err := b.checkCompile(u, moduleOpt, resp.Size, resp.Instructions); err != nil {
				return err
			}
		}
	case runHot, admitStream:
		resp, err := fx.compile(ctx, 0, cu.files, false, hop{})
		if err != nil {
			return err
		}
		if err := b.checkCompile(u, false, resp.Size, resp.Instructions); err != nil {
			return err
		}
		b.hashes[u] = resp.Hash
		if b.workload == admitStream {
			if b.wires[u], err = fx.unitBytes(ctx, 0, resp.Hash); err != nil {
				return err
			}
			if len(b.wires[u]) != resp.Size {
				return fmt.Errorf("%s: GET /unit returned %d bytes, /compile said %d", cu.name, len(b.wires[u]), resp.Size)
			}
			res, err := fx.stream(ctx, 0, b.wires[u], hop{})
			if err != nil {
				return err
			}
			return b.noteRun(u, res.OK, res.Error, res.Output, res.Steps, res.Allocs)
		}
		// The first run loads the unit and builds its pool snapshot;
		// the second is the first warm one.
		for i := 0; i < 2; i++ {
			start := time.Now()
			res, err := fx.run(ctx, 0, resp.Hash, hop{})
			if i == 0 {
				b.coldSetup[u] = append(b.coldSetup[u], time.Since(start))
			}
			if err != nil {
				return err
			}
			if err := b.noteRun(u, res.OK, res.Error, res.Output, res.Steps, res.Allocs); err != nil {
				return err
			}
		}
	case fleetChurn:
		// One churn iteration per unit, on a fixed node rotation.
		resp, err := fx.compile(ctx, u%fleetSize, salted(cu.files, "set-up"), false, hop{})
		if err != nil {
			return err
		}
		if err := b.checkCompile(u, false, resp.Size, resp.Instructions); err != nil {
			return err
		}
		for i := 1; i <= runsPerLoop; i++ {
			res, err := fx.run(ctx, (u+i)%fleetSize, resp.Hash, hop{})
			if err != nil {
				return err
			}
			if err := b.noteRun(u, res.OK, res.Error, res.Output, res.Steps, res.Allocs); err != nil {
				return err
			}
		}
	}
	return nil
}

// issued is one request of a traced phase, as the replay needs it.
type issued struct {
	id   int64
	op   op
	loop int // the client's loop iteration it belongs to
}

// sample is one request of a timed phase.
type sample struct {
	at, lat  time.Duration // completion time since the phase start; latency
	ok, cold bool
	group    group
}

// group is the kind of request a sample belongs to. The latency medians
// are taken per group first, so that the program mix, not how the two
// clients' requests happened to interleave, sets which group's latency
// lands at the middle. On fleet-churn the group includes the path the
// request took, which the seeded node choices decide: a median over a
// mix of fast and slow paths would jump between them as the mix moved.
type group struct {
	kind      opKind
	unit      int
	moduleOpt bool
	path      path
}

// path is the way through the fleet a fleet-churn request took.
type path uint8

const (
	pathLocal    path = iota // compile at the ring owner; run at a node that stores the unit
	pathForward              // compile at another node, forwarded to the owner
	pathPeerFill             // first run at a node that lacks the unit: peer fill, then load
	pathWarm                 // later run at a node that ran the unit: its pool serves it
)

// phase is the outcome of one timed phase.
type phase struct {
	d, elapsed        time.Duration // requested and actual length
	attempted, failed int
	samples           []sample
	log               [][]issued // per client; traced phases only
	errs              errs
}

// maxWindows is how many equal windows of at least a second a plain
// run's timed phase is cut into. Throughput is reported as the median
// over the windows, so that a burst of outside load covering fewer than
// half of them does not move the result.
const maxWindows = 10

// throughput returns the median over windows of correct completed
// requests per second.
func (p *phase) throughput() float64 {
	windows := min(maxWindows, max(1, int(p.d/time.Second)))
	return median(p.rates(p.d / time.Duration(windows)))
}

// rates returns, for each whole window of length w, the correct
// completed requests per second.
func (p *phase) rates(w time.Duration) []float64 {
	done := make([]float64, max(1, int(p.d/w)))
	for _, s := range p.samples {
		if i := int(s.at / w); i < len(done) && s.ok {
			done[i]++
		}
	}
	for i := range done {
		done[i] /= w.Seconds()
	}
	return done
}

// overheadWindow is the length of the windows a traced run's overhead
// phase alternates between untraced (even) and traced (odd) requests.
const overheadWindow = time.Second

// overhead is the tracing overhead: the throughput of the untraced
// windows minus that of the traced windows, as a share of the
// untraced, each the median over its windows.
func (p *phase) overhead() (plain, traced float64) {
	var ps, ts []float64
	for i, r := range p.rates(overheadWindow) {
		if i%2 == 0 {
			ps = append(ps, r)
		} else {
			ts = append(ts, r)
		}
	}
	return median(ps), median(ts)
}

// tailWindow is how many requests, in completion order, each window of
// the p99 holds: enough that at least ten lie beyond its 99th
// percentile.
const tailWindow = 1000

// p99 is the median over consecutive windows of tailWindow requests of
// each window's 99th percentile latency, in ms, so a burst of outside
// load covering fewer than half of the windows does not move it. A phase
// with fewer requests is one window; requests past the last whole window
// join it.
func (p *phase) p99() float64 {
	s := slices.Clone(p.samples)
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.at, b.at) })
	n := max(1, len(s)/tailWindow)
	per := make([]float64, n)
	for w := range per {
		lo, hi := w*tailWindow, (w+1)*tailWindow
		if w == n-1 {
			hi = len(s)
		}
		lat := make([]time.Duration, 0, hi-lo)
		for _, x := range s[lo:hi] {
			lat = append(lat, x.lat)
		}
		per[w] = quantile(lat, 0.99)
	}
	return median(per)
}

// groupMedian is the median over request groups of each group's median
// latency, in ms, over the samples keep accepts.
func (p *phase) groupMedian(keep func(sample) bool) float64 {
	byGroup := make(map[group][]time.Duration)
	for _, s := range p.samples {
		if keep(s) {
			byGroup[s.group] = append(byGroup[s.group], s.lat)
		}
	}
	var per []float64
	for _, d := range byGroup {
		per = append(per, quantile(d, 0.5))
	}
	return median(per)
}

// clients is the closed-loop client count: each waits for its reply
// before sending the next request.
const clients = 2

// drive runs the closed-loop clients for d. With a recorder, each HTTP
// exchange is a span and the requests are logged for the replay; with
// alternate too, only requests that start in odd overhead windows are.
func (b *bench) drive(ctx context.Context, d time.Duration, rec *recorder, alternate bool) *phase {
	p := &phase{d: d, log: make([][]issued, clients)}
	if b.gens == nil {
		for c := 0; c < clients; c++ {
			b.gens = append(b.gens, newGenerator(b.workload, b.seed, c, len(b.units)))
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &clientLoop{b: b, rec: rec, alternate: alternate, client: c, start: start}
			gen := b.gens[c]
			for loop := 0; time.Now().Before(deadline); loop++ {
				cl.iteration(ctx, loop, gen.next())
			}
			mu.Lock()
			defer mu.Unlock()
			p.attempted += cl.attempted
			p.failed += cl.failed
			p.samples = append(p.samples, cl.samples...)
			if rec != nil {
				p.log[c] = cl.log
			}
			for _, e := range cl.errs {
				p.errs.add(e)
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// clientLoop is one closed-loop client's state.
type clientLoop struct {
	b         *bench
	rec       *recorder
	alternate bool
	client    int
	start     time.Time // of the phase
	n         int64

	attempted, failed int
	samples           []sample
	log               []issued
	errs              []error
}

func (cl *clientLoop) iteration(ctx context.Context, loop int, ops []op) {
	b := cl.b
	hash := ""
	ran := make(map[int]bool)    // fleet nodes that ran this iteration's unit
	stored := make(map[int]bool) // fleet nodes whose store holds it
	for _, o := range ops {
		cl.n++
		id := int64(cl.client+1)<<40 | cl.n
		start := time.Now()
		rec := cl.rec
		if cl.alternate && int(start.Sub(cl.start)/overheadWindow)%2 == 0 {
			rec = nil
		}
		sid := rec.start(id, 0, "client.http")
		h := hop{}
		if rec != nil {
			h = hop{req: id, span: sid}
		}
		var err error
		switch o.kind {
		case opCompile:
			cu := &b.units[o.unit]
			var resp codeserver.CompileResponse
			resp, err = b.fx.compile(ctx, o.node, salted(cu.files, o.salt), o.moduleOpt, h)
			if err == nil && resp.Cached {
				err = fmt.Errorf("%s: salted compile served from cache", cu.name)
			}
			if err == nil {
				err = b.checkCompile(o.unit, o.moduleOpt, resp.Size, resp.Instructions)
			}
			hash = resp.Hash
		case opRun:
			if b.workload == runHot {
				hash = b.hashes[o.unit]
			}
			if hash == "" {
				err = fmt.Errorf("%s: run without a compiled unit", b.units[o.unit].name)
				break
			}
			res, rerr := b.fx.run(ctx, o.node, hash, h)
			err = rerr
			if err == nil {
				err = b.checkRun(o.unit, res.OK, res.Error, res.Output, res.Steps, res.Allocs)
			}
		case opStream:
			res, rerr := b.fx.stream(ctx, o.node, b.wires[o.unit], h)
			err = rerr
			if err == nil {
				err = b.checkRun(o.unit, res.OK, res.Error, res.Output, res.Steps, res.Allocs)
			}
		}
		now := time.Now()
		lat := now.Sub(start)
		rec.end(sid)
		cl.attempted++
		if err != nil {
			cl.failed++
			cl.errs = append(cl.errs, err)
		}
		// compile-miss and admit-stream requests miss every cache on
		// their path; a fleet-churn run is cold at a node that has not
		// run the unit yet.
		cold := b.workload == compileMiss || b.workload == admitStream ||
			(b.workload == fleetChurn && o.kind == opRun && !ran[o.node])
		g := group{kind: o.kind, unit: o.unit, moduleOpt: o.moduleOpt}
		if b.workload == fleetChurn && err == nil {
			switch {
			case o.kind == opCompile:
				// The entry node stores the unit it compiled or the
				// owner's bytes it forwarded for.
				owner := b.fx.owner(hash)
				stored[o.node], stored[owner] = true, true
				if o.node != owner {
					g.path = pathForward
				}
			case ran[o.node]:
				g.path = pathWarm
			case !stored[o.node]:
				g.path = pathPeerFill
				stored[o.node] = true
			}
		}
		if o.kind == opRun {
			ran[o.node] = true
		}
		cl.samples = append(cl.samples, sample{at: now.Sub(cl.start), lat: lat, ok: err == nil, cold: cold, group: g})
		if rec != nil && !cl.alternate {
			cl.log = append(cl.log, issued{id: id, op: o, loop: loop})
		}
	}
}

// unitBytes is the mean wire size over the units the workload serves,
// each distinct unit counted once. It is exact: every served unit was
// checked against the oracle's size.
func (b *bench) unitBytes() float64 {
	sum, n := 0, 0
	for _, cu := range b.units {
		sum += cu.want[0].size
		n++
		if b.workload == compileMiss {
			sum += cu.want[1].size
			n++
		}
	}
	return float64(sum) / float64(n)
}

// perRunMean is the mean over corpus units of one run's reported drain
// (0 when the workload runs nothing).
func perRunMean(v []int64) float64 {
	sum, n := int64(0), 0
	for _, x := range v {
		if x >= 0 {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile returns the nearest-rank q-quantile of d in milliseconds.
func quantile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(i, 0)])
}

// coldSetupP50 is run-hot's cold latency: the median over units of each
// unit's median first-run latency across set-ups.
func (b *bench) coldSetupP50() float64 {
	per := make([]float64, len(b.coldSetup))
	for u, d := range b.coldSetup {
		per[u] = quantile(d, 0.5)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
