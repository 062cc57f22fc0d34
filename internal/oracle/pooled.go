package oracle

import (
	"bytes"
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/driver"
	"safetsa/internal/interp"
	"safetsa/internal/wire"
)

// PooledDifferential is the warm-session-pool soundness oracle: for any
// byte string that passes wire admission, a session cloned from a
// post-static-init snapshot must be observationally identical — printed
// output, error text, kill reason, cumulative step/alloc budget drain,
// and final reachable-heap checksum — to a fresh session that ran the
// initializers itself, on both execution engines. It also holds the
// snapshot's publish-time self-verification (Verify) to its contract: a
// snapshot taken from a successful init must always verify.
//
// Modules whose static init fails under the budgets never produce a
// snapshot (mirroring the server, which only pools after a successful
// RunStaticInit), so for them the oracle just checks that the split
// LoadTrustedDeferred+RunStaticInit path agrees with the fused loader.
func PooledDifferential(data []byte, b Budgets) error {
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
	comp, err := interp.Compile(mod, prep)
	if err != nil {
		return fmt.Errorf("oracle: prepared module fails to compile: %w", err)
	}
	b = b.orDefaults()

	if err := pooledEngineCheck(mod, driver.EngineReference, nil, b); err != nil {
		return err
	}
	return pooledEngineCheck(mod, driver.EngineCompiled, comp, b)
}

// pooledEngineCheck runs the fresh/build/clone trio on one engine and
// compares every observable.
func pooledEngineCheck(mod *core.Module, engine string, comp *interp.Compiled, b Budgets) error {
	// Fresh baseline: the fused load-and-init path every earlier PR
	// shipped (init + main in one session).
	fresh := &engineRun{}
	fresh.env = b.newEnv(&fresh.out)
	fresh.l, fresh.err = interp.LoadTrustedDeferred(mod, nil, comp, fresh.env)
	if fresh.err == nil {
		fresh.err = fresh.l.RunStaticInit()
	}
	initFailed := fresh.err != nil
	var build *engineRun
	var snap *interp.Snapshot
	if !initFailed {
		// Init succeeded: this is the session the server would Offer to
		// the pool. Freeze it before main mutates anything.
		var err error
		snap, err = fresh.l.Snapshot(fresh.out.Bytes())
		if err != nil {
			return fmt.Errorf("oracle: %s snapshot after successful init failed: %w", engine, err)
		}
		if err := snap.Verify(); err != nil {
			return fmt.Errorf("oracle: %s snapshot self-verification failed: %w", engine, err)
		}
		build = fresh
		if mod.Entry >= 0 {
			build.err = build.l.RunMain()
		}
	}

	// Reference observable: a second fresh session end-to-end (the first
	// one was consumed as the snapshot builder).
	ref := &engineRun{}
	ref.env = b.newEnv(&ref.out)
	ref.l, ref.err = interp.LoadTrustedDeferred(mod, nil, comp, ref.env)
	if ref.err == nil {
		ref.err = ref.l.RunStaticInit()
		if ref.err == nil && mod.Entry >= 0 {
			ref.err = ref.l.RunMain()
		}
	}

	if initFailed {
		// No snapshot forms; the builder session itself must match the
		// reference (both died mid-init the same way).
		if err := compareEngineRuns(engine+" (init-failed build)", ref, fresh); err != nil {
			return err
		}
		return nil
	}

	if err := compareEngineRuns(engine+" (build session)", ref, build); err != nil {
		return err
	}
	if !snap.Admits(b.MaxSteps, b.MaxAlloc) {
		return fmt.Errorf("oracle: %s snapshot does not admit the budgets that built it (init %d steps/%d allocs under %d/%d)",
			engine, snap.InitSteps(), snap.InitAllocs(), b.MaxSteps, b.MaxAlloc)
	}
	clone := &engineRun{}
	clone.env = b.newEnv(&clone.out)
	clone.l, clone.err = snap.NewSession(clone.env)
	if clone.err != nil {
		return fmt.Errorf("oracle: %s clone session failed: %w", engine, clone.err)
	}
	if mod.Entry >= 0 {
		clone.err = clone.l.RunMain()
	}
	if err := compareEngineRuns(engine+" (pooled clone)", ref, clone); err != nil {
		return err
	}
	// Clone independence: a second clone from the same snapshot must see
	// the frozen state, not the first clone's main-mutated heap.
	var out2 bytes.Buffer
	env2 := b.newEnv(&out2)
	l2, err := snap.NewSession(env2)
	if err != nil {
		return fmt.Errorf("oracle: %s second clone failed: %w", engine, err)
	}
	if got := l2.HeapChecksum(); got != snap.Checksum() {
		return fmt.Errorf("oracle: %s second clone heap %#x != frozen %#x (clones are not isolated)",
			engine, got, snap.Checksum())
	}
	return nil
}
