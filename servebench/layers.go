package main

import (
	"bytes"
	"errors"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// This file calls the public entry points of the layers whose inner
// split the server does not time: the optimizer's passes, and the
// interpreter's load, static init, snapshot, clone and main. The traced
// run's replay times them; with a zero tracer the same calls build the
// oracle's expectations.

// tracer binds a recorder (nil: not tracing) to one request.
type tracer struct {
	rec *recorder
	req int64
}

func (t tracer) open(parent int64, name string) int64 { return t.rec.start(t.req, parent, name) }
func (t tracer) close(id int64)                       { t.rec.end(id) }

func (t tracer) span(parent int64, name string, fn func() error) error {
	id := t.open(parent, name)
	err := fn()
	t.close(id)
	return err
}

// Budgets sent with every run: far above what any corpus unit needs,
// so no correct run is ever killed.
const (
	runMaxSteps  = 1 << 40
	runMaxAllocs = 1 << 40
)

// built is one unit produced the way codeserver's producer pool builds
// it with Optimize set: front end, SSA build, optimizer, verify, encode.
type built struct {
	wire          []byte
	instrs        int
	checksRemoved int
	passRemoved   map[string]int // instructions removed per pass (traced only)
}

// produce builds a unit. When tracing, each optimizer pass is a span,
// timed between calls of the RunPasses after hook; the instruction
// count taken inside the hook falls outside every pass span.
func produce(t tracer, parent int64, files map[string]string, moduleOpt bool) (built, error) {
	mod, err := driver.CompileTSASource(files)
	if err != nil {
		return built{}, err
	}
	o := opt.Options{ModuleLevel: moduleOpt}
	passes := opt.PipelineFor(o)
	var b built
	var after func(string) error
	if t.rec != nil {
		b.passRemoved = make(map[string]int, len(passes))
		before, _, _, _ := opt.Count(mod)
		i := 0
		passID := t.open(parent, "opt.pass."+passes[0].Name)
		after = func(name string) error {
			t.close(passID)
			n, _, _, _ := opt.Count(mod)
			b.passRemoved[name] += before - n
			before = n
			if i++; i < len(passes) {
				passID = t.open(parent, "opt.pass."+passes[i].Name)
			}
			return nil
		}
	}
	st, err := opt.RunPasses(mod, o, passes, after)
	if err != nil {
		return built{}, err
	}
	b.checksRemoved = st.NullChecksBefore + st.ArrayChecksBefore - st.NullChecksAfter - st.ArrayChecksAfter
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return built{}, fmt.Errorf("verify after optimization: %w", err)
	}
	b.wire = wire.EncodeModule(mod)
	b.instrs = mod.NumInstrs()
	return b, nil
}

// loaded is what the server's loader cache holds for a unit: the
// verified module and its prepared form. The server times building it
// (decode, verify, prepare, backend), so the replay builds it untimed.
type loaded struct {
	mod  *core.Module
	prep *interp.Prepared
}

func load(data []byte) (*loaded, error) {
	mod, err := wire.DecodeVerified(data)
	if err != nil {
		return nil, err
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		return nil, err
	}
	return &loaded{mod: mod, prep: prep}, nil
}

// runResult is what one run session printed and drained.
type runResult struct {
	output string
	steps  int64
	allocs int64
}

func newEnv(out *bytes.Buffer) *rt.Env {
	return &rt.Env{Out: out, MaxSteps: runMaxSteps, MaxAlloc: runMaxAllocs}
}

// runFresh is a run without a pooled snapshot on the server's default
// (prepared) engine: load, static init, snapshot build and its verify
// probe, then main. It returns the snapshot the pool would keep (nil if
// building it failed).
func runFresh(t tracer, parent int64, lu *loaded) (runResult, *interp.Snapshot, error) {
	var out bytes.Buffer
	env := newEnv(&out)
	var l *interp.Loader
	if err := t.span(parent, "interp.load", func() (err error) {
		l, err = interp.LoadTrustedDeferred(lu.mod, lu.prep, nil, env)
		return err
	}); err != nil {
		return runResult{}, nil, err
	}
	if err := t.span(parent, "interp.static_init", l.RunStaticInit); err != nil {
		return runResult{}, nil, err
	}
	var snap *interp.Snapshot
	_ = t.span(parent, "interp.snapshot", func() error {
		s, err := l.Snapshot(out.Bytes())
		if err == nil && s.Verify() == nil {
			snap = s
		}
		return nil // a unit without a snapshot runs fresh every time
	})
	err := t.span(parent, "interp.main", l.RunMain)
	return runResult{out.String(), env.Steps, env.Allocs}, snap, err
}

// runPooled is a warm-pool run: clone the snapshot, then main.
func runPooled(t tracer, parent int64, snap *interp.Snapshot) (runResult, error) {
	var out bytes.Buffer
	env := newEnv(&out)
	var l *interp.Loader
	if err := t.span(parent, "interp.clone", func() (err error) {
		l, err = snap.NewSession(env)
		return err
	}); err != nil {
		return runResult{}, err
	}
	err := t.span(parent, "interp.main", l.RunMain)
	return runResult{out.String(), env.Steps, env.Allocs}, err
}

// runStream is POST /run-stream: streaming decode and verify, with the
// guest starting as soon as its entry function is admitted.
func runStream(t tracer, parent int64, data []byte) (runResult, error) {
	var su *wire.StreamingUnit
	if err := t.span(parent, "wire.first_func", func() (err error) {
		if su, err = wire.DecodeVerifiedStream(bytes.NewReader(data), wire.DecodeOptions{}); err != nil {
			return err
		}
		return su.WaitEntry()
	}); err != nil {
		return runResult{}, err
	}
	var out bytes.Buffer
	env := newEnv(&out)
	var l *interp.Loader
	err := t.span(parent, "interp.load", func() (err error) {
		l, err = interp.LoadTrustedStreaming(su.Mod, su.WaitFunc, env)
		return err
	})
	if err == nil {
		err = t.span(parent, "interp.main", l.RunMain)
	}
	return runResult{out.String(), env.Steps, env.Allocs}, errors.Join(err, su.Wait())
}
