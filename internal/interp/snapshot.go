package interp

import (
	"bytes"
	"fmt"
	"sort"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the warm-session-pool substrate: static initialization of
// a unit runs once per (module, engine), its post-init state is frozen
// into a Snapshot, and subsequent sessions clone the snapshot instead of
// re-running the initializers. The soundness contract is byte-exactness:
// a session served from a clone must be indistinguishable — printed
// output, error text, kill reason, step/alloc budget drain, object
// identity hashes, and the deterministic heap checksum — from a fresh
// session that ran static init itself. The pieces that make that hold:
//
//   - rt.Cloner preserves aliasing, cycles, and object ids, and charges
//     nothing; NewSession replays the initializers' recorded step/alloc
//     drain and output bytes onto the clone's Env instead, so budgets
//     and output land exactly where a fresh session would put them.
//   - The clone walk is deterministic (classes in TypeID order, values
//     in field/element order — the same visit order HeapChecksum uses),
//     and Verify() checks a probe clone against the recorded checksum
//     before a snapshot is ever served.
//   - A snapshot only forms when static init SUCCEEDS under the
//     building session's budgets. Sessions whose budgets are too tight
//     to survive init (Admits reports false) are declined and must run
//     fresh, so mid-init kills keep their exact fresh-session behavior.

// LoadTrustedDeferred is loadCommon plus engine binding, with static
// initialization left to the caller (RunStaticInit): the session exists
// but has executed no guest code. A non-nil comp binds the compiled
// engine; with comp nil, a non-nil prep is compiled here (Compile(mod,
// prep)) and bound the same way, so a caller holding only the prepared
// lowering still runs on the served engine; both nil selects the
// reference CST walker. LoadTrusted and LoadTrustedCompiled are
// equivalent to this followed immediately by RunStaticInit.
func LoadTrustedDeferred(mod *core.Module, prep *Prepared, comp *Compiled, env *rt.Env) (*Loader, error) {
	if comp == nil && prep != nil {
		var err error
		if comp, err = Compile(mod, prep); err != nil {
			return nil, err
		}
	}
	if comp != nil && len(comp.Funcs) != len(mod.Funcs) {
		return nil, fmt.Errorf("interp: compiled form does not match module")
	}
	l, err := loadCommon(mod, env)
	if err != nil {
		return nil, err
	}
	l.comp = comp
	return l, nil
}

// Snapshot is the frozen post-static-init state of one (module, engine)
// pair: a detached deep copy of every class's statics and the heap
// reachable from them, the initializers' printed bytes and budget
// drain, the object-id cursor, and the heap checksum at freeze time.
// A Snapshot is immutable once built and may serve concurrent
// NewSession calls.
type Snapshot struct {
	mod  *core.Module
	comp *Compiled

	// classes is a detached class table holding the frozen statics: it
	// shares nothing with the building session, so the builder can keep
	// executing (and mutating its own statics) after the snapshot is
	// taken.
	classes map[core.TypeID]*rt.ClassInfo

	initOut    []byte
	initSteps  int64
	initAllocs int64
	nextID     int64
	checksum   uint64
}

// classMap pairs two sessions' class tables by TypeID for the cloner.
func classMap(src, dst map[core.TypeID]*rt.ClassInfo) map[*rt.ClassInfo]*rt.ClassInfo {
	m := make(map[*rt.ClassInfo]*rt.ClassInfo, len(src))
	for id, ci := range src {
		m[ci] = dst[id]
	}
	return m
}

// sortedTypeIDs is the deterministic class visit order shared by the
// checksum walk and the snapshot clone walk.
func sortedTypeIDs(classes map[core.TypeID]*rt.ClassInfo) []core.TypeID {
	ids := make([]core.TypeID, 0, len(classes))
	for id := range classes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// copyStatics clones every class's statics from src into dst (already
// paired by TypeID) with one shared cloner, preserving aliasing across
// classes.
func copyStatics(src, dst map[core.TypeID]*rt.ClassInfo) {
	c := rt.NewCloner(classMap(src, dst))
	for _, id := range sortedTypeIDs(src) {
		from, to := src[id].Statics, dst[id].Statics
		for i, v := range from {
			to[i] = c.Value(v)
		}
	}
}

// Snapshot freezes the session's current state (normally: immediately
// after RunStaticInit succeeded, before RunMain). initOut is the output
// the session has printed so far; NewSession replays it so a clone's
// response carries the same bytes a fresh session would print during
// init.
func (l *Loader) Snapshot(initOut []byte) (*Snapshot, error) {
	detached, err := loadCommon(l.Mod, &rt.Env{})
	if err != nil {
		return nil, err
	}
	copyStatics(l.classes, detached.classes)
	s := &Snapshot{
		mod:        l.Mod,
		comp:       l.comp,
		classes:    detached.classes,
		initOut:    append([]byte(nil), initOut...),
		initSteps:  l.Env.Steps,
		initAllocs: l.Env.Allocs,
		nextID:     l.Env.NextID(),
		checksum:   l.HeapChecksum(),
	}
	return s, nil
}

// InitSteps is the step budget static initialization drained.
func (s *Snapshot) InitSteps() int64 { return s.initSteps }

// InitAllocs is the allocation budget static initialization drained.
func (s *Snapshot) InitAllocs() int64 { return s.initAllocs }

// Checksum is the deterministic heap checksum at freeze time.
func (s *Snapshot) Checksum() uint64 { return s.checksum }

// Admits reports whether a session with the given budgets (0 =
// unlimited) would have survived static initialization. A session it
// rejects must run fresh: its fresh run dies mid-init, a state a cheap
// clone cannot reproduce.
func (s *Snapshot) Admits(maxSteps, maxAlloc int64) bool {
	if maxSteps > 0 && maxSteps < s.initSteps {
		return false
	}
	if maxAlloc > 0 && maxAlloc < s.initAllocs {
		return false
	}
	return true
}

// NewSession builds a ready-to-RunMain session from the snapshot: a
// fresh class table, a deep copy of the frozen statics and heap, the
// initializers' output replayed to env.Out, their budget drain
// pre-charged (without tripping limits — callers gate on Admits), and
// the object-id cursor restored so identity hashes continue exactly
// where a fresh session's would.
func (s *Snapshot) NewSession(env *rt.Env) (*Loader, error) {
	l, err := LoadTrustedDeferred(s.mod, nil, s.comp, env)
	if err != nil {
		return nil, err
	}
	copyStatics(s.classes, l.classes)
	if len(s.initOut) > 0 && env.Out != nil {
		if _, err := env.Out.Write(s.initOut); err != nil {
			return nil, fmt.Errorf("interp: snapshot output replay: %w", err)
		}
	}
	env.Steps += s.initSteps
	env.Allocs += s.initAllocs
	env.SetNextID(s.nextID)
	return l, nil
}

// Verify probes the snapshot's integrity before it is served: a
// throwaway clone must reproduce the recorded heap checksum and init
// output byte-exactly. It catches any nondeterminism or aliasing loss
// in the clone machinery at pool-insert time, once per snapshot,
// instead of letting a corrupt snapshot serve divergent sessions.
func (s *Snapshot) Verify() error {
	var out bytes.Buffer
	l, err := s.NewSession(&rt.Env{Out: &out})
	if err != nil {
		return fmt.Errorf("interp: snapshot verify: %w", err)
	}
	if got := l.HeapChecksum(); got != s.checksum {
		return fmt.Errorf("interp: snapshot clone checksum %#x != frozen %#x", got, s.checksum)
	}
	if !bytes.Equal(out.Bytes(), s.initOut) {
		return fmt.Errorf("interp: snapshot clone init output diverges: %q != %q", out.Bytes(), s.initOut)
	}
	if l.Env.Steps != s.initSteps || l.Env.Allocs != s.initAllocs {
		return fmt.Errorf("interp: snapshot clone budget drain %d/%d != frozen %d/%d",
			l.Env.Steps, l.Env.Allocs, s.initSteps, s.initAllocs)
	}
	return nil
}
