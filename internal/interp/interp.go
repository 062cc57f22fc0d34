// Package interp is the SafeTSA code consumer: it loads a SafeTSA module
// (typically freshly decoded from the wire format), builds the runtime
// class metadata, runs static initializers, and executes function bodies
// by walking the Control Structure Tree and evaluating the type-separated
// SSA instructions directly.
package interp

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/lang/sema"
	"safetsa/internal/rt"
)

// Loader holds a loaded module and its runtime metadata.
type Loader struct {
	Mod *core.Module
	Env *rt.Env

	classes map[core.TypeID]*rt.ClassInfo
	exc     rt.ExcClasses
	// comp, when non-nil, switches the session to the closure-threaded
	// compiled engine: every function body (static initializers
	// included) runs through its thunk chains instead of the reference
	// CST walker.
	comp *Compiled
	// cfree and afree are the compiled engine's per-session free lists
	// for invocation frames and call-argument buffers (see getFrame in
	// compile.go). A Loader is single-session, single-goroutine state, so
	// the lists need no locking.
	cfree []*cframe
	afree [][]rt.Value
	// gate, when non-nil, marks a streaming session: before any
	// function index is executed, gate blocks until that function has
	// been admitted by the streaming decoder (or returns the stream's
	// error, aborting the run). See LoadTrustedStreaming.
	gate func(fi int) error
}

// Load verifies the module and prepares it for execution (class metadata
// and static initializers).
func Load(mod *core.Module, env *rt.Env) (*Loader, error) {
	if err := mod.Verify(core.VerifyOptions{}); err != nil {
		return nil, fmt.Errorf("interp: module rejected by verifier: %w", err)
	}
	return LoadTrusted(mod, env)
}

// LoadTrusted prepares an already-verified module for execution, skipping
// the structural verifier but still running the link checks and the
// static initializers. It is the entry point for loader caches that
// verify a decoded module once and then start many execution sessions
// from it.
//
// Shared-module invariant: the evaluator treats mod as strictly read-only
// — all mutable execution state (SSA value slots, operand stacks, static
// field storage, the heap) lives in the per-session Loader/frame/rt.Env.
// A single *core.Module may therefore back any number of concurrent
// LoadTrusted sessions, provided each session gets its own rt.Env and no
// one mutates the module (e.g. runs opt.Optimize on it) after it is
// shared.
func LoadTrusted(mod *core.Module, env *rt.Env) (*Loader, error) {
	l, err := loadCommon(mod, env)
	if err != nil {
		return nil, err
	}
	if err := l.RunStaticInit(); err != nil {
		return nil, err
	}
	return l, nil
}

// LoadTrustedStreaming prepares a module whose function bodies are
// still arriving (wire.DecodeVerifiedStream). The symbol tables must be
// complete and statically verified — the streaming decoder guarantees
// both — while Mod.Funcs fills in behind the session's back. gate(i)
// must block until function i is admitted, returning nil, or return the
// stream's terminal error; every function invocation passes through it,
// so execution proceeds exactly as far as verified code exists and a
// mid-stream failure aborts the run with the stream's error. The
// session runs on the reference CST engine: the compiled engine needs
// the complete function list at load time, which is the opposite of the
// point.
func LoadTrustedStreaming(mod *core.Module, gate func(fi int) error, env *rt.Env) (*Loader, error) {
	l, err := loadCommon(mod, env)
	if err != nil {
		return nil, err
	}
	l.gate = gate
	if err := l.RunStaticInit(); err != nil {
		return nil, err
	}
	return l, nil
}

// loadCommon performs the engine-independent part of loading: link
// checks and runtime class metadata, but no guest execution.
func loadCommon(mod *core.Module, env *rt.Env) (*Loader, error) {
	// Every host-implemented method must map to a builtin this consumer
	// actually provides; a module referencing an unknown import is
	// rejected at link time.
	for i := range mod.Methods {
		mr := &mod.Methods[i]
		if mr.FuncIdx >= 0 || mr.IsCtor {
			continue
		}
		arity, ok := builtinArity[sema.BuiltinID(mr.Builtin)]
		if !ok {
			return nil, fmt.Errorf("interp: method %s imports unknown host operation %d",
				mr.Name, mr.Builtin)
		}
		have := len(mr.Params)
		if !mr.Static {
			have++
		}
		if have != arity {
			return nil, fmt.Errorf("interp: method %s does not match the host operation's arity",
				mr.Name)
		}
	}
	l := &Loader{Mod: mod, Env: env, classes: make(map[core.TypeID]*rt.ClassInfo)}
	tt := mod.Types

	// Imported class hierarchy.
	mk := func(id core.TypeID, slots int) *rt.ClassInfo {
		t := tt.MustGet(id)
		ci := &rt.ClassInfo{Name: t.Name, NumSlots: slots, TypeID: int32(id)}
		if t.Super != core.NoType {
			ci.Super = l.classes[t.Super]
		}
		l.classes[id] = ci
		return ci
	}
	mk(tt.Object, 0)
	mk(tt.String, 0)
	l.exc.Throwable = mk(tt.Throwable, 1)
	l.exc.Exception = mk(tt.Exception, 1)
	l.exc.NPE = mk(tt.NPE, 1)
	l.exc.Arith = mk(tt.Arith, 1)
	l.exc.Bounds = mk(tt.Bounds, 1)
	l.exc.Cast = mk(tt.Cast, 1)
	l.exc.NegSize = mk(tt.NegSize, 1)

	// User classes (Module.Classes is in superclass-first order).
	for _, cd := range mod.Classes {
		t := tt.MustGet(cd.Type)
		ci := &rt.ClassInfo{
			Name:     t.Name,
			Super:    l.classes[cd.Super],
			NumSlots: int(cd.NumSlots),
			VTable:   cd.VTable,
			TypeID:   int32(cd.Type),
			Statics:  make([]rt.Value, cd.NumStatics),
		}
		if ci.Super == nil {
			return nil, fmt.Errorf("interp: class %s has unknown superclass", t.Name)
		}
		l.classes[cd.Type] = ci
	}

	return l, nil
}

// RunStaticInit executes the static initializers in class order on the
// session's engine. The LoadTrusted* entry points call it internally;
// sessions built with LoadTrustedDeferred (the warm-pool build path)
// call it exactly once themselves, before either RunMain or Snapshot.
func (l *Loader) RunStaticInit() error {
	var err error
	func() {
		defer l.catchTopLevel(&err)
		for _, fi := range l.Mod.StaticInit {
			if fi >= 0 {
				l.call(fi, nil)
			}
		}
	}()
	return err
}

// streamAbort unwinds guest execution when the streaming decoder
// rejects the unit mid-run; catchTopLevel converts it to the stream's
// error.
type streamAbort struct{ err error }

// call invokes function index fi on the session's engine.
func (l *Loader) call(fi int32, args []rt.Value) rt.Value {
	if l.gate != nil {
		if err := l.gate(int(fi)); err != nil {
			panic(streamAbort{err})
		}
	}
	if l.comp != nil {
		return l.runCompiled(l.comp.Funcs[fi], args)
	}
	return l.callFunc(l.Mod.Funcs[fi], args)
}

// catchTopLevel converts an uncaught TJ exception into a Go error.
func (l *Loader) catchTopLevel(err *error) {
	r := recover()
	switch t := r.(type) {
	case nil:
	case streamAbort:
		*err = t.err
	case rt.Thrown:
		*err = fmt.Errorf("uncaught exception: %s", l.describeExc(t.Val))
	case error:
		if rt.IsExecError(t) {
			*err = t
			return
		}
		panic(r)
	default:
		panic(r)
	}
}

func (l *Loader) describeExc(v rt.Value) string {
	o, ok := v.R.(*rt.Object)
	if !ok {
		return rt.RefString(v.R)
	}
	msg := ""
	if len(o.Fields) > 0 {
		if s, ok := rt.GetStr(o.Fields[0].R); ok {
			msg = ": " + s
		}
	}
	return o.Class.Name + msg
}

// RunMain executes the module entry point.
func (l *Loader) RunMain() error {
	if l.Mod.Entry < 0 {
		return fmt.Errorf("interp: module has no main method")
	}
	if l.gate != nil {
		// Streaming: the entry slot may not be published yet — wait for
		// its admission before inspecting the body.
		if fi := l.Mod.Methods[l.Mod.Entry].FuncIdx; fi >= 0 {
			if err := l.gate(int(fi)); err != nil {
				return err
			}
		}
	}
	f := l.Mod.FuncOf(l.Mod.Entry)
	if f == nil {
		return fmt.Errorf("interp: entry method has no body")
	}
	args := make([]rt.Value, len(f.Params)) // String[] args arrives null
	var err error
	func() {
		defer l.catchTopLevel(&err)
		l.call(l.Mod.Methods[l.Mod.Entry].FuncIdx, args)
	}()
	return err
}

// CallStatic invokes a static method by class and name (for tests and
// examples).
func (l *Loader) CallStatic(class, name string, args ...rt.Value) (rt.Value, error) {
	for _, mr := range l.Mod.Methods {
		owner := l.Mod.Types.MustGet(mr.Owner)
		if mr.Static && owner.Name == class && mr.Name == name && mr.FuncIdx >= 0 {
			var out rt.Value
			var err error
			func() {
				defer l.catchTopLevel(&err)
				out = l.call(mr.FuncIdx, args)
			}()
			return out, err
		}
	}
	return rt.Value{}, fmt.Errorf("interp: no static method %s.%s", class, name)
}

// ---------------------------------------------------------------------
// Frames and control

type ctrl int

const (
	ctrlNext ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// tsaThrow transfers control to an exception handler within the same
// function; it never escapes a function body.
type tsaThrow struct {
	val     rt.Value
	edge    int
	handler *core.Block
}

type frame struct {
	f    *core.Func
	vals []rt.Value
	args []rt.Value
	ret  rt.Value
	// prev is the most recently executed block, used to resolve the
	// incoming edge of phi evaluation.
	prev *core.Block
	// enterEdge, when >= 0, overrides edge resolution for the next
	// block (exception-handler entry).
	enterEdge int
	caught    rt.Value
}

func (l *Loader) callFunc(f *core.Func, args []rt.Value) rt.Value {
	fr := &frame{
		f:         f,
		vals:      make([]rt.Value, f.NumValues()+1),
		args:      args,
		enterEdge: -1,
	}
	l.execNode(fr, f.Body)
	return fr.ret
}

func (fr *frame) val(id core.ValueID) rt.Value {
	return fr.vals[id]
}

func (l *Loader) execNode(fr *frame, n *core.CSTNode) ctrl {
	if n == nil {
		return ctrlNext
	}
	switch n.Kind {
	case core.CSeq:
		for _, k := range n.Kids {
			if c := l.execNode(fr, k); c != ctrlNext {
				return c
			}
		}
		return ctrlNext
	case core.CBlock:
		l.execBlock(fr, n.Block)
		return ctrlNext
	case core.CIf:
		if fr.val(n.Cond).Bool() {
			return l.execNode(fr, n.Kids[0])
		}
		if len(n.Kids) > 1 {
			return l.execNode(fr, n.Kids[1])
		}
		return ctrlNext
	case core.CWhile:
		for {
			// Charge one step per iteration so a loop whose blocks
			// carry no instructions (e.g. `while (true) { }` with a
			// hoisted condition) still consumes step budget and stays
			// interruptible.
			l.Env.Step()
			if c := l.execNode(fr, n.Kids[0]); c != ctrlNext {
				return c
			}
			if !fr.val(n.Cond).Bool() {
				return ctrlNext
			}
			switch c := l.execNode(fr, n.Kids[1]); c {
			case ctrlReturn:
				return ctrlReturn
			case ctrlBreak:
				return ctrlNext
			}
		}
	case core.CDoWhile:
		for {
			l.Env.Step()
			switch c := l.execNode(fr, n.Kids[0]); c {
			case ctrlReturn:
				return ctrlReturn
			case ctrlBreak:
				return ctrlNext
			}
			if c := l.execNode(fr, n.Kids[1]); c != ctrlNext {
				return c
			}
			if !fr.val(n.Cond).Bool() {
				return ctrlNext
			}
		}
	case core.CReturn:
		if n.Val != core.NoValue {
			fr.ret = fr.val(n.Val)
		}
		return ctrlReturn
	case core.CBreak:
		return ctrlBreak
	case core.CContinue:
		return ctrlContinue
	case core.CThrow:
		v := fr.val(n.Val)
		if v.R == nil {
			l.throwTo(fr.f.ThrowHandler[n], fr.f.ThrowEdge[n],
				l.newExc(l.exc.NPE, "throw of null"))
		}
		l.throwTo(fr.f.ThrowHandler[n], fr.f.ThrowEdge[n], v)
		return ctrlNext // unreachable
	case core.CTry:
		caught, edge, c, ok := l.runProtected(fr, n)
		if !ok {
			return c
		}
		fr.caught = caught
		fr.enterEdge = edge
		return l.execNode(fr, n.Kids[1])
	}
	panic(fmt.Sprintf("interp: unhandled CST node %v", n.Kind))
}

// runProtected executes the try body, intercepting transfers to this
// node's handler. ok reports whether the handler must run.
func (l *Loader) runProtected(fr *frame, n *core.CSTNode) (caught rt.Value, edge int, c ctrl, ok bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		t, isTsa := r.(tsaThrow)
		if !isTsa || t.handler != n.Handler {
			panic(r)
		}
		caught, edge, ok = t.val, t.edge, true
	}()
	c = l.execNode(fr, n.Kids[0])
	return caught, edge, c, false
}

// throwTo raises an exception either into a local handler or out of the
// function.
func (l *Loader) throwTo(handler *core.Block, edge int, v rt.Value) {
	if handler != nil {
		panic(tsaThrow{val: v, edge: edge, handler: handler})
	}
	panic(rt.Thrown{Val: v})
}

// raise raises from an instruction site.
func (l *Loader) raise(fr *frame, in *core.Instr, v rt.Value) {
	l.throwTo(fr.f.HandlerOf[in], fr.f.ExcEdge[in], v)
}

func (l *Loader) newExc(c *rt.ClassInfo, msg string) rt.Value {
	o := l.Env.NewObject(c)
	o.Fields[0] = rt.RefValue(&rt.Str{S: msg})
	return rt.RefValue(o)
}

// execBlock evaluates a block: phis in parallel against the incoming
// edge, then the straightline code.
func (l *Loader) execBlock(fr *frame, b *core.Block) {
	if len(b.Phis) > 0 {
		edge := fr.enterEdge
		if edge < 0 {
			edge = -1
			for i, p := range b.Preds {
				if p.From == fr.prev && p.Site == nil {
					edge = i
					break
				}
			}
			if edge < 0 {
				panic(fmt.Sprintf("interp: %s: no edge from block %d into block %d",
					fr.f.Name, fr.prev.Index, b.Index))
			}
		}
		// Parallel phi semantics: read all operands, then write.
		tmp := make([]rt.Value, len(b.Phis))
		for i, phi := range b.Phis {
			tmp[i] = fr.val(phi.Args[edge])
		}
		for i, phi := range b.Phis {
			fr.vals[phi.ID] = tmp[i]
		}
	}
	fr.enterEdge = -1
	for _, in := range b.Code {
		l.Env.Step()
		l.execInstr(fr, in)
	}
	fr.prev = b
}

// builtinArity lists the host operations this consumer implements as
// imported methods, with their total argument count (receiver included).
// Math operations are absent: they travel as primitives, not methods.
var builtinArity = map[sema.BuiltinID]int{
	sema.BStrLength:     1,
	sema.BStrCharAt:     2,
	sema.BStrSubstring:  3,
	sema.BStrEquals:     2,
	sema.BStrCompareTo:  2,
	sema.BStrIndexOf:    2,
	sema.BStrHashCode:   1,
	sema.BObjHashCode:   1,
	sema.BObjEquals:     2,
	sema.BObjToString:   1,
	sema.BExcGetMessage: 1,
	sema.BPrintlnString: 1,
	sema.BPrintlnInt:    1,
	sema.BPrintlnLong:   1,
	sema.BPrintlnDouble: 1,
	sema.BPrintlnBool:   1,
	sema.BPrintlnChar:   1,
	sema.BPrintlnEmpty:  0,
	sema.BPrintString:   1,
	sema.BPrintInt:      1,
	sema.BPrintLong:     1,
	sema.BPrintDouble:   1,
	sema.BPrintBool:     1,
	sema.BPrintChar:     1,
}
