// Package oracle is the shared correctness-oracle infrastructure behind
// the repo's native fuzzing harnesses (go test -fuzz) and the
// differential test suites. It packages the paper's security and
// fidelity claims as executable invariants:
//
//   - Wire admission (§2/§9): arbitrary bytes pushed through
//     wire.DecodeModule either fail cleanly or yield a module the core
//     verifier accepts — a decoded-but-ill-formed module is an invariant
//     violation, never a fuzz "expected failure". Accepted modules must
//     then execute under step and allocation budgets without crashing
//     the host.
//   - Canonical wire form: encode → decode → re-encode is byte-identical,
//     so a distribution unit has exactly one on-the-wire spelling.
//   - Per-pass verification (metamorphic): the consumer verifier must
//     accept the module after every individual producer optimization
//     pass, not merely after the full -O pipeline.
//   - Four-pipeline differential: the bytecode VM, the plain SafeTSA
//     evaluator, the optimized SafeTSA evaluator, and the wire round
//     trip must print identical output for the same program.
//   - Execution-engine equivalence: every admissible module behaves
//     identically on the reference CST evaluator and the
//     closure-threaded compiled engine — output, errors, budget drain,
//     kill reason, and final heap.
//
// Every function returns nil for "behaved as specified" (including clean
// rejections of bad input) and a descriptive error for an invariant
// violation; harnesses simply t.Fatal on non-nil.
package oracle

import (
	"bytes"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/opt"
	"safetsa/internal/rt"
	"safetsa/internal/wire"
)

// Budgets bounds guest execution inside the oracles. The zero value
// picks defaults suitable for fuzzing (small enough that a hostile
// module cannot stall or bloat the harness, large enough that every
// corpus program finishes).
type Budgets struct {
	MaxSteps int64
	MaxAlloc int64
}

func (b Budgets) orDefaults() Budgets {
	if b.MaxSteps == 0 {
		b.MaxSteps = 1 << 20
	}
	if b.MaxAlloc == 0 {
		b.MaxAlloc = 1 << 22
	}
	return b
}

func (b Budgets) newEnv(out *bytes.Buffer) *rt.Env {
	return &rt.Env{Out: out, MaxSteps: b.MaxSteps, MaxAlloc: b.MaxAlloc}
}

// CheckWire is the referential-integrity property of the paper as an
// executable invariant: data is arbitrary (typically fuzzer-chosen)
// bytes. A malformed stream must be rejected cleanly (nil result); a
// stream that decodes must yield a verifier-clean module in canonical
// wire form, and executing that module under the budgets must terminate
// without panicking the host. Guest-level failures (uncaught exceptions,
// budget exhaustion) are legal outcomes.
func CheckWire(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection is the specified behavior
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	// The input spelling need not be canonical (trailing bytes, etc.),
	// but one encode must reach the fixed point immediately.
	if err := CheckCanonicalWire(mod); err != nil {
		return err
	}
	_, _ = runBounded(mod, b)
	return nil
}

// runBounded loads and runs a verified module under budgets; the
// (output, error) pair reports the guest-visible outcome. Host panics
// propagate — the caller (a fuzz harness) wants them fatal.
func runBounded(mod *core.Module, b Budgets) (string, error) {
	b = b.orDefaults()
	var out bytes.Buffer
	env := b.newEnv(&out)
	l, err := interp.LoadTrusted(mod, env)
	if err != nil {
		return out.String(), err
	}
	if mod.Entry < 0 {
		return out.String(), nil
	}
	err = l.RunMain()
	return out.String(), err
}

// CheckCanonicalWire asserts the canonical-form invariant on a verified
// module: encoding it, decoding the bytes, and encoding again must
// reproduce the first byte string exactly. This is what makes the
// content-addressed store sound — one module, one hash.
func CheckCanonicalWire(mod *core.Module) error {
	first := wire.EncodeModule(mod)
	dec, err := wire.DecodeModule(first)
	if err != nil {
		return fmt.Errorf("oracle: encoded module does not decode: %w", err)
	}
	if err := dec.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: re-decoded module rejected by verifier: %w", err)
	}
	second := wire.EncodeModule(dec)
	if !bytes.Equal(first, second) {
		return fmt.Errorf("oracle: wire form is not canonical: re-encoding %d bytes yielded %d different bytes",
			len(first), len(second))
	}
	return nil
}

// CheckFrontend pushes arbitrary source bytes through the scanner,
// parser, and semantic checker. Diagnostics are the specified behavior;
// the invariant is only that the front end neither panics nor runs away
// (the fuzz driver supplies the wall clock, the harness caps the input
// size). This is the regression net for scanner/parser hangs on
// adversarial input.
func CheckFrontend(src []byte) error {
	_, _ = driver.Frontend(map[string]string{"Fuzz.tj": string(src)})
	return nil
}

// OptimizePerPass runs the producer optimizer over mod, re-running the
// consumer verifier after each individual pass (the metamorphic oracle:
// no intermediate pipeline state may be unverifiable, because a producer
// that stops after any prefix of the pipeline must still emit admissible
// units).
func OptimizePerPass(mod *core.Module) (opt.Stats, error) {
	return RunPassesVerified(mod, opt.Pipeline())
}

// OptimizeModulePerPass runs the full interprocedural pipeline
// (devirtualization, inlining, check elimination on top of the
// intraprocedural passes) under the same per-pass verification.
func OptimizeModulePerPass(mod *core.Module) (opt.Stats, error) {
	return RunPassesVerifiedOptions(mod, opt.Options{ModuleLevel: true}, opt.ModulePipeline())
}

// RunPassesVerified applies an arbitrary pass sequence with the consumer
// verifier as the after-each-pass oracle; the returned error names the
// first pass whose output the verifier rejects.
func RunPassesVerified(mod *core.Module, passes []opt.Pass) (opt.Stats, error) {
	return RunPassesVerifiedOptions(mod, opt.Options{}, passes)
}

// RunPassesVerifiedOptions is RunPassesVerified with the optimizer
// options threaded through to every pass.
func RunPassesVerifiedOptions(mod *core.Module, o opt.Options, passes []opt.Pass) (opt.Stats, error) {
	return opt.RunPasses(mod, o, passes, func(pass string) error {
		if err := mod.Verify(core.VerifyOptions{}); err != nil {
			return fmt.Errorf("oracle: verifier rejects module after pass %q: %w", pass, err)
		}
		return nil
	})
}

// Differential compiles files through all four pipelines — bytecode VM,
// plain SafeTSA, per-pass-verified optimized SafeTSA, and the wire round
// trip of the optimized module — and requires identical printed output
// everywhere. It returns that output on success. Any compile failure,
// verifier rejection, runtime failure, or divergence is an error: the
// inputs are expected to be valid programs (generated corpus or
// checked-in seeds), so nothing here is a "clean rejection".
func Differential(files map[string]string, b Budgets) (string, error) {
	b = b.orDefaults()
	prog, err := driver.Frontend(files)
	if err != nil {
		return "", fmt.Errorf("oracle: frontend: %w", err)
	}

	bc, err := driver.CompileBytecode(prog)
	if err != nil {
		return "", fmt.Errorf("oracle: bytecode compile: %w", err)
	}
	if err := bc.Verify(); err != nil {
		return "", fmt.Errorf("oracle: bytecode verify: %w", err)
	}
	want, err := driver.RunBytecode(bc, b.MaxSteps)
	if err != nil {
		return want, fmt.Errorf("oracle: bytecode run: %w", err)
	}

	mod, err := driver.CompileTSA(prog)
	if err != nil {
		return want, fmt.Errorf("oracle: safetsa compile: %w", err)
	}
	got, err := runBounded(mod, b)
	if err != nil {
		return want, fmt.Errorf("oracle: plain SafeTSA run: %w", err)
	}
	if got != want {
		return want, divergence("plain SafeTSA", want, got)
	}

	if _, err := OptimizePerPass(mod); err != nil {
		return want, err
	}
	got, err = runBounded(mod, b)
	if err != nil {
		return want, fmt.Errorf("oracle: optimized SafeTSA run: %w", err)
	}
	if got != want {
		return want, divergence("optimized SafeTSA", want, got)
	}

	if err := CheckCanonicalWire(mod); err != nil {
		return want, err
	}
	dec, err := wire.DecodeVerified(wire.EncodeModule(mod))
	if err != nil {
		return want, fmt.Errorf("oracle: wire round trip: %w", err)
	}
	got, err = runBounded(dec, b)
	if err != nil {
		return want, fmt.Errorf("oracle: wire round-trip run: %w", err)
	}
	if got != want {
		return want, divergence("wire round trip", want, got)
	}
	return want, nil
}

// engineRun is the observable outcome of one oracle session: printed
// bytes, error, budget drain, and the loader that owns the final heap.
type engineRun struct {
	out bytes.Buffer
	env *rt.Env
	l   *interp.Loader
	err error
}

// EngineDifferential is the execution-engine equivalence oracle: any
// byte string that decodes and verifies (i.e. passes wire admission)
// must behave identically on the reference CST evaluator and the
// closure-threaded compiled engine — byte-identical output, identical
// error text and KillReason, identical cumulative step/alloc budget
// drain, and an identical final reachable-heap checksum. A verified
// module that fails to Prepare or Compile is itself a violation: both
// lowerings are total on admissible modules.
func EngineDifferential(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection, same contract as CheckWire
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	_, err = engineParity(mod, b)
	return err
}

// engineParity runs a verified module on both engines, holds the
// compiled session to the reference session bit-exactly, and returns
// the reference session for further comparison.
func engineParity(mod *core.Module, b Budgets) (*engineRun, error) {
	prep, err := interp.Prepare(mod)
	if err != nil {
		return nil, fmt.Errorf("oracle: verified module fails to prepare: %w", err)
	}
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		return nil, fmt.Errorf("oracle: prepared module fails to compile: %w", err)
	}
	ref := runSession(mod, b, func(env *rt.Env) (*interp.Loader, error) {
		return interp.LoadTrusted(mod, env)
	})
	got := runSession(mod, b, func(env *rt.Env) (*interp.Loader, error) {
		return interp.LoadTrustedCompiled(mod, comp, env)
	})
	return ref, compareEngineRuns(driver.EngineCompiled, ref, got)
}

// runSession loads mod through load (which must leave static init done)
// under fresh budgets and runs main.
func runSession(mod *core.Module, b Budgets, load func(*rt.Env) (*interp.Loader, error)) *engineRun {
	r := &engineRun{}
	r.env = b.orDefaults().newEnv(&r.out)
	r.l, r.err = load(r.env)
	if r.err != nil || mod.Entry < 0 {
		return r
	}
	r.err = r.l.RunMain()
	return r
}

// DeferredDifferential is EngineDifferential for a session bound from
// the prepared lowering alone: LoadTrustedDeferred(mod, prep, nil, env)
// compiles the lowering at bind time and the caller runs static init
// itself, as a traced replay does. That session must match the reference
// session bit-exactly on the same observables.
func DeferredDifferential(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection, same contract as CheckWire
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		return fmt.Errorf("oracle: verified module fails to prepare: %w", err)
	}
	ref := runSession(mod, b, func(env *rt.Env) (*interp.Loader, error) {
		return interp.LoadTrusted(mod, env)
	})
	got := runSession(mod, b, func(env *rt.Env) (*interp.Loader, error) {
		l, err := interp.LoadTrustedDeferred(mod, prep, nil, env)
		if err != nil {
			return nil, err
		}
		if err := l.RunStaticInit(); err != nil {
			return nil, err
		}
		return l, nil
	})
	return compareEngineRuns("deferred "+driver.EngineCompiled, ref, got)
}

// ModuleDifferential is the interprocedural-optimizer oracle: any byte
// string that decodes and verifies must (a) pass engine parity as it
// arrived, (b) survive the full module-level pipeline with the
// verifier accepting every intermediate state, (c) still be in canonical
// wire form afterwards, (d) pass engine parity again, and (e) —
// when neither session was killed by a budget — print the same bytes,
// fail with the same error, and leave the same reachable heap as the
// untransformed module. Budget drain is deliberately not compared across
// the tiers: spending fewer steps is the point of the optimizer, and a
// kill truncates output at a tier-dependent instant.
func ModuleDifferential(data []byte, b Budgets) error {
	mod, err := wire.DecodeModule(data)
	if err != nil {
		return nil // clean rejection, same contract as CheckWire
	}
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return fmt.Errorf("oracle: decoded module rejected by verifier: %w", err)
	}
	base, err := engineParity(mod, b)
	if err != nil {
		return err
	}
	tmod, err := wire.DecodeModule(data)
	if err != nil {
		return fmt.Errorf("oracle: second decode of accepted bytes failed: %w", err)
	}
	if _, err := OptimizeModulePerPass(tmod); err != nil {
		return err
	}
	if err := CheckCanonicalWire(tmod); err != nil {
		return err
	}
	after, err := engineParity(tmod, b)
	if err != nil {
		return err
	}
	if rt.KillReason(base.err) != "" || rt.KillReason(after.err) != "" {
		return nil
	}
	if !bytes.Equal(base.out.Bytes(), after.out.Bytes()) {
		return fmt.Errorf("oracle: module passes change output:\nbefore: %q\nafter:  %q",
			base.out.String(), after.out.String())
	}
	baseMsg, afterMsg := "", ""
	if base.err != nil {
		baseMsg = base.err.Error()
	}
	if after.err != nil {
		afterMsg = after.err.Error()
	}
	if baseMsg != afterMsg {
		return fmt.Errorf("oracle: module passes change the error:\nbefore: %q\nafter:  %q", baseMsg, afterMsg)
	}
	if base.l != nil && after.l != nil {
		if bh, ah := base.l.HeapChecksum(), after.l.HeapChecksum(); bh != ah {
			return fmt.Errorf("oracle: module passes change the reachable heap: %#x vs %#x", bh, ah)
		}
	}
	return nil
}

// compareEngineRuns holds one engine's session to the reference
// session's observables, bit-exactly.
func compareEngineRuns(engine string, ref, got *engineRun) error {
	if !bytes.Equal(ref.out.Bytes(), got.out.Bytes()) {
		return fmt.Errorf("oracle: %s engine output diverges:\nreference: %q\n%s: %q",
			engine, ref.out.String(), engine, got.out.String())
	}
	refMsg, gotMsg := "", ""
	if ref.err != nil {
		refMsg = ref.err.Error()
	}
	if got.err != nil {
		gotMsg = got.err.Error()
	}
	if refMsg != gotMsg {
		return fmt.Errorf("oracle: %s engine error diverges:\nreference: %q\n%s: %q",
			engine, refMsg, engine, gotMsg)
	}
	if rk, gk := rt.KillReason(ref.err), rt.KillReason(got.err); rk != gk {
		return fmt.Errorf("oracle: %s engine kill reason diverges: reference %q, %s %q", engine, rk, engine, gk)
	}
	if ref.env.Steps != got.env.Steps || ref.env.Allocs != got.env.Allocs {
		return fmt.Errorf("oracle: %s engine budget drain diverges: reference %d steps/%d allocs, %s %d steps/%d allocs",
			engine, ref.env.Steps, ref.env.Allocs, engine, got.env.Steps, got.env.Allocs)
	}
	if ref.l != nil && got.l != nil {
		if rh, gh := ref.l.HeapChecksum(), got.l.HeapChecksum(); rh != gh {
			return fmt.Errorf("oracle: %s engine heap diverges: reference %#x, %s %#x", engine, rh, engine, gh)
		}
	}
	return nil
}

func divergence(pipeline, want, got string) error {
	return fmt.Errorf("oracle: %s diverges from bytecode baseline:\nbytecode: %q\n%s: %q",
		pipeline, want, pipeline, got)
}
