package interp

import (
	"fmt"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// This file is the validated lowering that Compile consumes: a one-shot
// compilation of a decoded, verified module into a dense
// register-machine form, which is never executed itself — Compile fuses
// it into the closure-threaded engine. The paper observes that SafeTSA's
// dominator-relative (l, r) operand pairs can be mapped onto a flat
// virtual-register file while decoding, so the consumer never pays
// tree-walking cost at execution time; our wire decoder already resolves
// (l, r) pairs to function-wide SSA ValueIDs, and Prepare finishes the
// job by flattening the Control Structure Tree into straight-line code
// with explicit jumps, resolving every phi into edge-specific parallel
// register moves, and precomputing every exception edge into a (target
// pc, moves) pair.
//
// Slot-assignment invariant: the register of SSA value v is exactly
// int32(v). The reference evaluator's frame stores value v at
// vals[v] (a slice of NumValues()+1), so the prepared register file is
// the same array layout — slot 0 doubles as a scratch register that
// absorbs the results of void instructions, which lets the compiled
// thunks write regs[in.Dst] unconditionally instead of branching on
// "has result".
//
// Prepare runs strictly after the verifier on an immutable module and
// performs no re-verification; it does, however, bounds-check every
// table index it embeds into the prepared form (operands, phi inputs,
// fields, methods, types), returning an error — never panicking — on a
// reference that only a corrupted or hand-built module could contain.

// POp is a prepared-form opcode. Ordering is semantic: every opcode
// below pCtrl consumes one step of rt.Env budget when executed (they
// correspond 1:1 to reference-evaluator straight-line instructions,
// plus the per-iteration loop charge), while opcodes above pCtrl are
// pure control/data-movement pseudo-instructions that the reference
// evaluator performs for free during its CST walk.
type POp uint8

const (
	// Stepping opcodes (one rt.Env.Step each).
	PConst POp = iota
	PConstStr
	PParam
	PCopy
	PPrim
	PXPrim
	PNullCheck
	PIndexCheck
	PUpcast
	PInstanceOf
	PGetField
	PSetField
	PGetStatic
	PSetStatic
	PGetElt
	PSetElt
	PArrayLen
	PNew
	PNewArray
	PCall
	PDispatch
	PCatch
	PLoopStep

	pCtrl // sentinel: opcodes past this point do not step

	PJump
	PBranchFalse
	PMoves
	PReturn
	PReturnVal
	PThrow
)

var pOpNames = [...]string{
	PConst: "const", PConstStr: "conststr", PParam: "param", PCopy: "copy",
	PPrim: "prim", PXPrim: "xprim", PNullCheck: "nullcheck",
	PIndexCheck: "indexcheck", PUpcast: "upcast", PInstanceOf: "instanceof",
	PGetField: "getfield", PSetField: "setfield", PGetStatic: "getstatic",
	PSetStatic: "setstatic", PGetElt: "getelt", PSetElt: "setelt",
	PArrayLen: "arraylen", PNew: "new", PNewArray: "newarray",
	PCall: "call", PDispatch: "dispatch", PCatch: "catch",
	PLoopStep: "loopstep", pCtrl: "ctrl",
	PJump: "jump", PBranchFalse: "branchfalse", PMoves: "moves",
	PReturn: "return", PReturnVal: "returnval", PThrow: "throw",
}

func (op POp) String() string {
	if int(op) < len(pOpNames) && pOpNames[op] != "" {
		return pOpNames[op]
	}
	return fmt.Sprintf("pop(%d)", uint8(op))
}

// Move is one register copy of a parallel phi-move set.
type Move struct{ Dst, Src int32 }

// RaiseSite is the precomputed exception edge of a potentially-throwing
// prepared instruction: on a raise, Moves (the handler block's phi
// inputs for this edge) are applied in parallel and control transfers
// to Target. A nil *RaiseSite means the exception leaves the function
// as rt.Thrown.
type RaiseSite struct {
	Target int32
	Moves  []Move
}

// PreparedInst is one prepared instruction. Field use by opcode:
//
//	PConst       Dst ← Val
//	PConstStr    Dst ← fresh *rt.Str of Str (fresh per execution, so
//	             reference identity matches the reference evaluator)
//	PParam       Dst ← args[A]
//	PCopy        Dst ← reg A (OpDowncast: a stepped plane move)
//	PPrim        Dst ← Prim(reg A, reg B)
//	PXPrim       like PPrim but Prim ∈ {idiv,irem,ldiv,lrem}; zero
//	             divisor raises ArithmeticException via Raise
//	PNullCheck   Dst ← reg A after null test (Raise: NPE)
//	PIndexCheck  Dst ← reg B after bounds test against array reg A
//	PUpcast      Dst ← reg A after checked cast to Type (Raise: CCE)
//	PInstanceOf  Dst ← reg A instanceof Type
//	PGetField    Dst ← (reg A).fields[B]
//	PSetField    (reg A).fields[B] ← reg C
//	PGetStatic   Dst ← statics(Type)[B]
//	PSetStatic   statics(Type)[B] ← reg A
//	PGetElt      Dst ← (reg A)[reg B]
//	PSetElt      (reg A)[reg B] ← reg C
//	PArrayLen    Dst ← len(reg A)
//	PNew         Dst ← new instance of Type
//	PNewArray    Dst ← new array of Type, length reg A (Raise: NegSize)
//	PCall        Dst ← call method A (func index B, or native when B<0)
//	             with Args; Raise catches a callee rt.Thrown
//	PDispatch    like PCall but through the dispatch-table slot of
//	             method A
//	PCatch       Dst ← current caught exception
//	PLoopStep    charge one step (loop-iteration budget)
//	PJump        apply Moves, pc ← Target
//	PBranchFalse if reg A is false: apply Moves, pc ← Target
//	PMoves       apply Moves (phi entry on a fallthrough edge)
//	PReturn      return void
//	PReturnVal   return reg A
//	PThrow       raise reg A via Raise (null raises NPE on the same
//	             edge); nil Raise leaves the function
type PreparedInst struct {
	Op      POp
	Prim    core.PrimOp
	Dst     int32
	A, B, C int32
	Type    core.TypeID
	Target  int32
	Val     rt.Value
	Str     string
	Args    []int32
	Moves   []Move
	Raise   *RaiseSite
}

// PFunc is one prepared function body.
type PFunc struct {
	Name string
	// NumRegs is NumValues()+1: slot v holds SSA value v, slot 0 is
	// the void-result scratch register.
	NumRegs int32
	Code    []PreparedInst
}

// Prepared is the register-machine form of a module, the input of
// Compile. Like the module it was prepared from it is immutable after
// Prepare returns.
type Prepared struct {
	Funcs []*PFunc // parallel to Module.Funcs
	// Insts is the total prepared instruction count (for diagnostics
	// and cache accounting).
	Insts int
}

// Prepare compiles a verified module into its prepared form. It never
// executes guest code and never panics: a module whose references do
// not resolve (unreachable after the verifier, but reachable from
// hand-built or corrupted modules) yields an error.
func Prepare(mod *core.Module) (*Prepared, error) {
	p := &Prepared{Funcs: make([]*PFunc, len(mod.Funcs))}
	for i, f := range mod.Funcs {
		pf, err := prepareFunc(mod, f)
		if err != nil {
			return nil, fmt.Errorf("interp: prepare %s: %w", f.Name, err)
		}
		p.Funcs[i] = pf
		p.Insts += len(pf.Code)
	}
	return p, nil
}

// ---------------------------------------------------------------------
// The flattening compiler.

// pendingJump is a forward reference: an emitted PJump/PBranchFalse
// whose Target (and entry Moves, which depend on the destination
// block's phis) are patched when the destination is reached. src is the
// most recently executed basic block on that path — the static image of
// the reference evaluator's fr.prev — which selects the phi edge.
type pendingJump struct {
	at  int32
	src *core.Block
}

// flow describes how control reaches the next emitted instruction:
// an optional open fallthrough path (with its own src block) plus any
// number of pending jumps converging here. moved marks a fallthrough
// whose destination-block phi moves were already applied (loop headers
// and handler entries, whose entry moves are emitted at the transfer
// sources).
type flow struct {
	open  bool
	src   *core.Block
	moved bool
	jumps []pendingJump
}

func (fl *flow) dead() bool { return !fl.open && len(fl.jumps) == 0 }

// loopCtx collects the exits of the innermost loop being compiled.
type loopCtx struct {
	breaks    []pendingJump
	continues []pendingJump
}

type fcomp struct {
	mod  *core.Module
	f    *core.Func
	code []PreparedInst
	fl   flow
	loop []*loopCtx

	// raiseFix defers exception-edge resolution until every handler's
	// pc is known (handlers compile after their protected bodies, and
	// outer handlers after inner ones).
	raiseFix []raiseFixup
	handlers map[*core.Block]int32
}

type raiseFixup struct {
	at      int // instruction index whose Raise to fill
	handler *core.Block
	edge    int
}

func prepareFunc(mod *core.Module, f *core.Func) (*PFunc, error) {
	c := &fcomp{
		mod:      mod,
		f:        f,
		handlers: make(map[*core.Block]int32),
		fl:       flow{open: true},
	}
	if err := c.node(f.Body); err != nil {
		return nil, err
	}
	// Fall off the end of the body: a void return. Remaining pending
	// jumps (e.g. a try body exiting past its handler at the end of the
	// function) land here too.
	c.patchTo(int32(len(c.code)), nil)
	c.emit(PreparedInst{Op: PReturn})
	for _, fix := range c.raiseFix {
		target, ok := c.handlers[fix.handler]
		if !ok {
			return nil, fmt.Errorf("exception edge into uncompiled handler block %d", fix.handler.Index)
		}
		mv, err := c.edgeMoves(fix.handler, fix.edge)
		if err != nil {
			return nil, err
		}
		c.code[fix.at].Raise = &RaiseSite{Target: target, Moves: mv}
	}
	return &PFunc{
		Name:    f.Name,
		NumRegs: int32(f.NumValues() + 1),
		Code:    c.code,
	}, nil
}

func (c *fcomp) emit(in PreparedInst) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

func (c *fcomp) pc() int32 { return int32(len(c.code)) }

// reg validates an operand ValueID and returns its register.
func (c *fcomp) reg(id core.ValueID) (int32, error) {
	if id < 0 || int(id) > c.f.NumValues() {
		return 0, fmt.Errorf("value v%d out of range (function defines %d values)",
			id, c.f.NumValues())
	}
	return int32(id), nil
}

// dst returns the result register of an instruction: its SSA id, or the
// scratch register 0 for void results.
func dst(in *core.Instr) int32 { return int32(in.ID) }

// edgeMoves builds the parallel phi moves for entering block b along
// predecessor edge k.
func (c *fcomp) edgeMoves(b *core.Block, k int) ([]Move, error) {
	if len(b.Phis) == 0 {
		return nil, nil
	}
	if k < 0 || k >= len(b.Preds) {
		return nil, fmt.Errorf("edge %d out of range for block %d (%d predecessors)",
			k, b.Index, len(b.Preds))
	}
	mv := make([]Move, len(b.Phis))
	for i, phi := range b.Phis {
		if len(phi.Args) != len(b.Preds) {
			return nil, fmt.Errorf("phi v%d of block %d has %d inputs for %d edges",
				phi.ID, b.Index, len(phi.Args), len(b.Preds))
		}
		src, err := c.reg(phi.Args[k])
		if err != nil {
			return nil, err
		}
		d, err := c.reg(phi.ID)
		if err != nil {
			return nil, err
		}
		mv[i] = Move{Dst: d, Src: src}
	}
	return mv, nil
}

// normalEdge finds the index of the normal (non-exception) predecessor
// edge from block `from` into b — the static counterpart of the
// reference evaluator's fr.prev scan.
func (c *fcomp) normalEdge(b, from *core.Block) (int, error) {
	for i, p := range b.Preds {
		if p.From == from && p.Site == nil {
			return i, nil
		}
	}
	fromIdx := -1
	if from != nil {
		fromIdx = from.Index
	}
	return 0, fmt.Errorf("no edge from block %d into block %d", fromIdx, b.Index)
}

// patchTo resolves every pending jump of the current flow to target
// with the given moves (nil when the destination has no phis or when
// the destination makes the source block irrelevant, e.g. a return).
func (c *fcomp) patchTo(target int32, moves []Move) {
	for _, j := range c.fl.jumps {
		c.code[j.at].Target = target
		c.code[j.at].Moves = moves
	}
	c.fl.jumps = nil
}

// collapse funnels all live paths into the current pc for a decision
// point (an if or loop condition) that cannot apply per-path phi moves.
// It returns the unique source block of the surviving path. The SafeTSA
// builder always materializes a merge block before reusing control
// (the current-block invariant of the CST), so distinct sources here
// mean a module shape the builder cannot emit; rejecting it keeps the
// compiler sound without path duplication.
func (c *fcomp) collapse() (*core.Block, error) {
	if c.fl.dead() {
		return nil, nil
	}
	var src *core.Block
	have := false
	if c.fl.open {
		src, have = c.fl.src, true
	}
	for _, j := range c.fl.jumps {
		if !have {
			src, have = j.src, true
			continue
		}
		if j.src != src {
			return nil, fmt.Errorf("ambiguous predecessor at decision point (blocks %d and %d)",
				blockIdx(src), blockIdx(j.src))
		}
	}
	c.patchTo(c.pc(), nil)
	c.fl = flow{open: true, src: src}
	return src, nil
}

func blockIdx(b *core.Block) int {
	if b == nil {
		return -1
	}
	return b.Index
}

// enterLoop emits the loop-entry phi moves of header h for every live
// path — inline for the open fallthrough, folded into each pending
// jump — and returns with the flow marked moved, ready for the header
// block itself. The entry moves run before the loop's per-iteration
// step charge; the reference evaluator charges the step first, but no
// observable action separates the two, so budget kills land on the
// same step either way.
func (c *fcomp) enterLoop(h *core.Block) error {
	if c.fl.open {
		e, err := c.normalEdge(h, c.fl.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		if len(mv) > 0 {
			c.emit(PreparedInst{Op: PMoves, Moves: mv})
		}
	}
	loopPC := c.pc()
	for _, j := range c.fl.jumps {
		e, err := c.normalEdge(h, j.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		c.code[j.at].Target = loopPC
		c.code[j.at].Moves = mv
	}
	c.fl = flow{open: true, moved: true}
	return nil
}

// backedge patches one loop exit (the open fallthrough or a pending
// jump) into a jump back to loopPC with the phi moves of header h.
func (c *fcomp) closeLoop(h *core.Block, loopPC int32, jumps []pendingJump) error {
	if c.fl.open {
		e, err := c.normalEdge(h, c.fl.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PJump, Target: loopPC, Moves: mv})
	}
	for _, j := range append(c.fl.jumps, jumps...) {
		e, err := c.normalEdge(h, j.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(h, e)
		if err != nil {
			return err
		}
		c.code[j.at].Target = loopPC
		c.code[j.at].Moves = mv
	}
	c.fl.jumps = nil
	c.fl.open = false
	return nil
}

// divert turns the current flow into pending jumps (emitting a PJump
// for the open path) and returns them, leaving the flow dead. Break,
// continue, and the try body's exit over its handler all route through
// here, each jump keeping its own source block for later phi
// resolution.
func (c *fcomp) divert() []pendingJump {
	jumps := c.fl.jumps
	if c.fl.open {
		at := c.emit(PreparedInst{Op: PJump})
		jumps = append(jumps, pendingJump{at: int32(at), src: c.fl.src})
	}
	c.fl = flow{}
	return jumps
}

func (c *fcomp) node(n *core.CSTNode) error {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case core.CSeq:
		for _, k := range n.Kids {
			if err := c.node(k); err != nil {
				return err
			}
		}
		return nil

	case core.CBlock:
		return c.block(n.Block)

	case core.CIf:
		src, err := c.collapse()
		if err != nil {
			return err
		}
		cond, err := c.reg(n.Cond)
		if err != nil {
			return err
		}
		br := c.emit(PreparedInst{Op: PBranchFalse, A: cond})
		c.fl = flow{open: true, src: src}
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		if len(n.Kids) > 1 && n.Kids[1] != nil {
			thenExit := c.divert()
			c.fl = flow{jumps: []pendingJump{{at: int32(br), src: src}}}
			if err := c.node(n.Kids[1]); err != nil {
				return err
			}
			c.fl.jumps = append(c.fl.jumps, thenExit...)
			return nil
		}
		c.fl.jumps = append(c.fl.jumps, pendingJump{at: int32(br), src: src})
		return nil

	case core.CWhile:
		if err := c.enterLoop(n.Block); err != nil {
			return err
		}
		loopPC := c.pc()
		c.emit(PreparedInst{Op: PLoopStep})
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		condSrc, err := c.collapse()
		if err != nil {
			return err
		}
		cond, err := c.reg(n.Cond)
		if err != nil {
			return err
		}
		exit := c.emit(PreparedInst{Op: PBranchFalse, A: cond})
		lc := &loopCtx{}
		c.loop = append(c.loop, lc)
		c.fl = flow{open: true, src: condSrc}
		if err := c.node(n.Kids[1]); err != nil {
			return err
		}
		c.loop = c.loop[:len(c.loop)-1]
		if err := c.closeLoop(n.Block, loopPC, lc.continues); err != nil {
			return err
		}
		c.fl = flow{jumps: append(lc.breaks, pendingJump{at: int32(exit), src: condSrc})}
		return nil

	case core.CDoWhile:
		if err := c.enterLoop(n.Block); err != nil {
			return err
		}
		loopPC := c.pc()
		c.emit(PreparedInst{Op: PLoopStep})
		lc := &loopCtx{}
		c.loop = append(c.loop, lc)
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		c.loop = c.loop[:len(c.loop)-1]
		// A continue in the body falls through to the latch sequence,
		// which resolves each path's phi moves at its first block.
		c.fl.jumps = append(c.fl.jumps, lc.continues...)
		if err := c.node(n.Kids[1]); err != nil {
			return err
		}
		condSrc, err := c.collapse()
		if err != nil {
			return err
		}
		cond, err := c.reg(n.Cond)
		if err != nil {
			return err
		}
		exit := c.emit(PreparedInst{Op: PBranchFalse, A: cond})
		if err := c.closeLoop(n.Block, loopPC, nil); err != nil {
			return err
		}
		c.fl = flow{jumps: append(lc.breaks, pendingJump{at: int32(exit), src: condSrc})}
		return nil

	case core.CReturn:
		c.patchTo(c.pc(), nil)
		if n.Val != core.NoValue {
			r, err := c.reg(n.Val)
			if err != nil {
				return err
			}
			c.emit(PreparedInst{Op: PReturnVal, A: r})
		} else {
			c.emit(PreparedInst{Op: PReturn})
		}
		c.fl = flow{}
		return nil

	case core.CBreak:
		if len(c.loop) == 0 {
			return fmt.Errorf("break outside a loop")
		}
		lc := c.loop[len(c.loop)-1]
		lc.breaks = append(lc.breaks, c.divert()...)
		return nil

	case core.CContinue:
		if len(c.loop) == 0 {
			return fmt.Errorf("continue outside a loop")
		}
		lc := c.loop[len(c.loop)-1]
		lc.continues = append(lc.continues, c.divert()...)
		return nil

	case core.CThrow:
		c.patchTo(c.pc(), nil)
		r, err := c.reg(n.Val)
		if err != nil {
			return err
		}
		at := c.emit(PreparedInst{Op: PThrow, A: r})
		if h := c.f.ThrowHandler[n]; h != nil {
			c.raiseFix = append(c.raiseFix, raiseFixup{at: at, handler: h, edge: c.f.ThrowEdge[n]})
		}
		c.fl = flow{}
		return nil

	case core.CTry:
		if err := c.node(n.Kids[0]); err != nil {
			return err
		}
		after := c.divert()
		if n.Handler == nil {
			return fmt.Errorf("try without a handler block")
		}
		// The handler entry is reached only through raises, which apply
		// the exception-edge phi moves before transferring here.
		c.handlers[n.Handler] = c.pc()
		c.fl = flow{open: true, moved: true}
		if err := c.node(n.Kids[1]); err != nil {
			return err
		}
		c.fl.jumps = append(c.fl.jumps, after...)
		return nil
	}
	return fmt.Errorf("unhandled CST node %v", n.Kind)
}

// block compiles one basic block: entry phi moves for every incoming
// path, then the straight-line code.
func (c *fcomp) block(b *core.Block) error {
	if c.fl.open && !c.fl.moved && len(b.Phis) > 0 {
		e, err := c.normalEdge(b, c.fl.src)
		if err != nil {
			return err
		}
		mv, err := c.edgeMoves(b, e)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PMoves, Moves: mv})
	}
	entry := c.pc()
	for _, j := range c.fl.jumps {
		mv := []Move(nil)
		if len(b.Phis) > 0 {
			e, err := c.normalEdge(b, j.src)
			if err != nil {
				return err
			}
			if mv, err = c.edgeMoves(b, e); err != nil {
				return err
			}
		}
		c.code[j.at].Target = entry
		c.code[j.at].Moves = mv
	}
	for _, in := range b.Code {
		if err := c.instr(in); err != nil {
			return fmt.Errorf("block %d, %s v%d: %w", b.Index, in.Op, in.ID, err)
		}
	}
	c.fl = flow{open: true, src: b}
	return nil
}

// args validates and converts instruction operands to registers.
func (c *fcomp) argRegs(in *core.Instr, want int) ([]int32, error) {
	if len(in.Args) != want {
		return nil, fmt.Errorf("%d operands, want %d", len(in.Args), want)
	}
	out := make([]int32, want)
	for i, id := range in.Args {
		r, err := c.reg(id)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (c *fcomp) typeArg(id core.TypeID) (core.TypeID, error) {
	if c.mod.Types.Get(id) == nil {
		return 0, fmt.Errorf("type id %d out of range", id)
	}
	return id, nil
}

// site registers the exception edge of a potentially-throwing
// instruction for post-compilation fixup; instructions outside any try
// region keep a nil Raise and let the exception leave the function.
func (c *fcomp) site(at int, in *core.Instr) {
	if h := c.f.HandlerOf[in]; h != nil {
		c.raiseFix = append(c.raiseFix, raiseFixup{at: at, handler: h, edge: c.f.ExcEdge[in]})
	}
}

func (c *fcomp) instr(in *core.Instr) error {
	switch in.Op {
	case core.OpParam:
		c.emit(PreparedInst{Op: PParam, Dst: dst(in), A: in.Aux})

	case core.OpConst:
		switch in.Const.Kind {
		case core.KInt, core.KLong, core.KChar, core.KBool:
			c.emit(PreparedInst{Op: PConst, Dst: dst(in), Val: rt.Value{I: in.Const.I}})
		case core.KDouble:
			c.emit(PreparedInst{Op: PConst, Dst: dst(in), Val: rt.Value{D: in.Const.D}})
		case core.KString:
			c.emit(PreparedInst{Op: PConstStr, Dst: dst(in), Str: in.Const.S})
		case core.KNull:
			c.emit(PreparedInst{Op: PConst, Dst: dst(in)})
		default:
			return fmt.Errorf("bad constant kind %d", in.Const.Kind)
		}

	case core.OpPrim, core.OpXPrim:
		if !in.Prim.Valid() {
			return fmt.Errorf("unknown primitive %d", uint8(in.Prim))
		}
		n := len(in.Prim.Sig().Params)
		a, err := c.argRegs(in, n)
		if err != nil {
			return err
		}
		p := PreparedInst{Op: PPrim, Prim: in.Prim, Dst: dst(in), A: a[0]}
		if n > 1 {
			p.B = a[1]
		}
		switch in.Prim {
		case core.PIDiv, core.PIRem, core.PLDiv, core.PLRem:
			p.Op = PXPrim
			at := c.emit(p)
			c.site(at, in)
			return nil
		}
		c.emit(p)

	case core.OpNullCheck:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		at := c.emit(PreparedInst{Op: PNullCheck, Dst: dst(in), A: a[0]})
		c.site(at, in)

	case core.OpIndexCheck:
		a, err := c.argRegs(in, 2)
		if err != nil {
			return err
		}
		at := c.emit(PreparedInst{Op: PIndexCheck, Dst: dst(in), A: a[0], B: a[1]})
		c.site(at, in)

	case core.OpUpcast:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		at := c.emit(PreparedInst{Op: PUpcast, Dst: dst(in), A: a[0], Type: t})
		c.site(at, in)

	case core.OpDowncast:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PCopy, Dst: dst(in), A: a[0]})

	case core.OpInstanceOf:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PInstanceOf, Dst: dst(in), A: a[0], Type: t})

	case core.OpGetField, core.OpSetField:
		if in.Field < 0 || int(in.Field) >= len(c.mod.Fields) {
			return fmt.Errorf("field index %d out of range", in.Field)
		}
		fld := c.mod.Fields[in.Field]
		if fld.Static {
			if in.Op == core.OpGetField {
				c.emit(PreparedInst{Op: PGetStatic, Dst: dst(in), Type: fld.Owner, B: fld.Slot})
				return nil
			}
			a, err := c.argRegs(in, 1)
			if err != nil {
				return err
			}
			c.emit(PreparedInst{Op: PSetStatic, Type: fld.Owner, B: fld.Slot, A: a[0]})
			return nil
		}
		if in.Op == core.OpGetField {
			a, err := c.argRegs(in, 1)
			if err != nil {
				return err
			}
			c.emit(PreparedInst{Op: PGetField, Dst: dst(in), A: a[0], B: fld.Slot})
			return nil
		}
		a, err := c.argRegs(in, 2)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PSetField, A: a[0], B: fld.Slot, C: a[1]})

	case core.OpGetElt:
		a, err := c.argRegs(in, 2)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PGetElt, Dst: dst(in), A: a[0], B: a[1]})

	case core.OpSetElt:
		a, err := c.argRegs(in, 3)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PSetElt, A: a[0], B: a[1], C: a[2]})

	case core.OpArrayLen:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PArrayLen, Dst: dst(in), A: a[0]})

	case core.OpNew:
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		c.emit(PreparedInst{Op: PNew, Dst: dst(in), Type: t})

	case core.OpNewArray:
		a, err := c.argRegs(in, 1)
		if err != nil {
			return err
		}
		t, err := c.typeArg(in.TypeArg)
		if err != nil {
			return err
		}
		at := c.emit(PreparedInst{Op: PNewArray, Dst: dst(in), A: a[0], Type: t})
		c.site(at, in)

	case core.OpXCall, core.OpXDispatch:
		if in.Method < 0 || int(in.Method) >= len(c.mod.Methods) {
			return fmt.Errorf("method index %d out of range", in.Method)
		}
		args := make([]int32, len(in.Args))
		for i, id := range in.Args {
			r, err := c.reg(id)
			if err != nil {
				return err
			}
			args[i] = r
		}
		mr := &c.mod.Methods[in.Method]
		p := PreparedInst{Dst: dst(in), A: in.Method, Args: args}
		if in.Op == core.OpXDispatch {
			p.Op = PDispatch
		} else {
			p.Op = PCall
			p.B = mr.FuncIdx
			if mr.FuncIdx >= 0 && int(mr.FuncIdx) >= len(c.mod.Funcs) {
				return fmt.Errorf("function index %d out of range", mr.FuncIdx)
			}
		}
		at := c.emit(p)
		c.site(at, in)

	case core.OpCatch:
		c.emit(PreparedInst{Op: PCatch, Dst: dst(in)})

	default:
		// OpPhi lives in the phi section, OpMem0 only inside producer
		// optimization; neither reaches a verified consumer module.
		return fmt.Errorf("opcode %s is not executable", in.Op)
	}
	return nil
}
