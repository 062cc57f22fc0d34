package opt

import (
	"safetsa/internal/core"
)

// memVersion tokens abstract the state of memory. Every block gets a
// memory-in version by forward dataflow: a block whose predecessors
// disagree receives a fresh "memory phi" token — the paper's artificial
// Mem variable with phi nodes at joins, kept purely producer-side ("this
// mechanism is used solely during the optimization phase and is not part
// of the transmitted code").
type memVersion int32

const memInit memVersion = 0

// killsMemory reports whether an instruction invalidates memory-dependent
// expressions (stores and calls; calls conservatively return a new Mem,
// as the paper's non-interprocedural approximation does).
func killsMemory(op core.Op) bool {
	switch op {
	case core.OpSetField, core.OpSetElt, core.OpXCall, core.OpXDispatch:
		return true
	}
	return false
}

// partition identifies an alias class of memory: the single conservative
// Mem ('m'), one field ('f'), or array elements of one type ('a'). Field
// and array-element partitions never alias each other in TJ (no array
// covariance), which is exactly the type/field-based partitioning the
// paper sketches as future work.
type partition struct {
	kind byte
	sym  int32
}

var memAll = partition{kind: 'm'}

// killsPartition reports whether an instruction invalidates a partition;
// calls conservatively kill everything (the paper's non-interprocedural
// approximation).
func killsPartition(in *core.Instr, p partition) bool {
	switch in.Op {
	case core.OpXCall, core.OpXDispatch:
		return true
	case core.OpSetField:
		return p.kind == 'm' || (p.kind == 'f' && in.Field == p.sym)
	case core.OpSetElt:
		return p.kind == 'm' || (p.kind == 'a' && int32(in.TypeArg) == p.sym)
	}
	return false
}

// memInOf computes the memory-in version of every block for one
// partition by fixpoint; it also returns the per-instruction kill tokens.
func memInOf(f *core.Func, p partition) (map[*core.Block]memVersion, map[*core.Instr]memVersion) {
	// Token space: 0 = init; 1+instrIndex for killing instructions;
	// phi tokens allocated per block from a separate range.
	killToken := make(map[*core.Instr]memVersion)
	next := memVersion(1)
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if killsPartition(in, p) {
				killToken[in] = next
				next++
			}
		}
	}
	phiToken := make(map[*core.Block]memVersion)
	for _, b := range f.Blocks {
		phiToken[b] = next
		next++
	}

	const unknown = memVersion(-1)
	memIn := make(map[*core.Block]memVersion, len(f.Blocks))
	memOut := make(map[*core.Block]memVersion, len(f.Blocks))
	for _, b := range f.Blocks {
		memIn[b] = unknown
		memOut[b] = unknown
	}
	memIn[f.Entry] = memInit

	outOf := func(b *core.Block, upto *core.Instr) memVersion {
		cur := memIn[b]
		for _, in := range b.Code {
			if in == upto {
				break
			}
			if t, ok := killToken[in]; ok {
				cur = t
			}
		}
		return cur
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			in := memIn[b]
			if b != f.Entry {
				v := unknown
				conflict := false
				for _, p := range b.Preds {
					var pv memVersion
					if p.Site != nil {
						// Exception edge: memory state at the throwing
						// site.
						if memIn[p.From] == unknown {
							continue
						}
						pv = outOf(p.From, p.Site)
					} else {
						pv = memOut[p.From]
					}
					if pv == unknown {
						continue
					}
					if v == unknown {
						v = pv
					} else if v != pv {
						conflict = true
					}
				}
				if conflict {
					v = phiToken[b]
				}
				if v != unknown && v != in {
					memIn[b] = v
					changed = true
				}
			}
			out := outOf(b, nil)
			if out != memOut[b] {
				memOut[b] = out
				changed = true
			}
		}
	}
	return memIn, killToken
}

// cseKey identifies an expression for value numbering. mem is only
// meaningful for memory-dependent loads.
type cseKey struct {
	op   core.Op
	prim core.PrimOp
	t    core.TypeID
	sym  int32
	a0   core.ValueID
	a1   core.ValueID
	mem  memVersion
}

// cseable builds the value-numbering key of an instruction, or ok=false
// when the instruction must not be merged (calls, stores, allocations,
// and string-producing primitives, whose results have object identity).
func cseable(in *core.Instr, mem memVersion) (cseKey, bool) {
	k := cseKey{op: in.Op, mem: -1}
	arg := func(i int) core.ValueID {
		if i < len(in.Args) {
			return in.Args[i]
		}
		return core.NoValue
	}
	switch in.Op {
	case core.OpPrim, core.OpXPrim:
		switch in.Prim {
		case core.PSConcat, core.PSOfInt, core.PSOfLong, core.PSOfDouble,
			core.PSOfBool, core.PSOfChar, core.PSOfRef:
			return k, false
		}
		k.prim = in.Prim
		k.a0, k.a1 = arg(0), arg(1)
		return k, true
	case core.OpNullCheck:
		k.a0 = arg(0)
		return k, true
	case core.OpIndexCheck:
		k.a0, k.a1 = arg(0), arg(1)
		return k, true
	case core.OpUpcast, core.OpDowncast, core.OpInstanceOf:
		k.t = in.TypeArg
		k.a0 = arg(0)
		return k, true
	case core.OpArrayLen:
		// Array lengths are immutable: no memory dependence.
		k.a0 = arg(0)
		return k, true
	case core.OpGetField:
		k.sym = in.Field
		k.a0 = arg(0)
		k.mem = mem
		return k, true
	case core.OpGetElt:
		k.a0, k.a1 = arg(0), arg(1)
		k.mem = mem
		return k, true
	}
	return k, false
}

// cse performs dominator-scoped common subexpression elimination: a
// pre-order walk of the structural dominator tree with a scoped value
// table, so every replacement value dominates its new uses and remains
// expressible as an (l, r) reference. Redundant checks are deleted
// outright — a dominating identical check already performed the runtime
// test — which is exactly the paper's producer-side check elimination.
func cse(m *core.Module, f *core.Func, o Options) int {
	// Partition dataflow is computed lazily, once per alias class in
	// use. The conservative configuration uses the single memAll class.
	type partData struct {
		memIn map[*core.Block]memVersion
		kills map[*core.Instr]memVersion
	}
	parts := make(map[partition]*partData)
	dataOf := func(p partition) *partData {
		pd, ok := parts[p]
		if !ok {
			memIn, kills := memInOf(f, p)
			pd = &partData{memIn: memIn, kills: kills}
			parts[p] = pd
		}
		return pd
	}
	partOf := func(in *core.Instr) partition {
		if !o.FieldSensitiveMem {
			return memAll
		}
		switch in.Op {
		case core.OpGetField:
			return partition{kind: 'f', sym: in.Field}
		case core.OpGetElt:
			return partition{kind: 'a', sym: int32(in.TypeArg)}
		}
		return memAll
	}

	table := make(map[cseKey][]core.ValueID) // value stacks, scoped
	repl := make(map[core.ValueID]core.ValueID)
	removed := 0

	resolve := func(v core.ValueID) core.ValueID {
		for {
			n, ok := repl[v]
			if !ok {
				return v
			}
			v = n
		}
	}

	var walk func(b *core.Block)
	walk = func(b *core.Block) {
		var pushed []cseKey
		// Kill instructions seen so far in this block; the current
		// version of any partition replays them against its token map.
		var seenKills []*core.Instr
		versionAt := func(p partition) memVersion {
			pd := dataOf(p)
			ver := pd.memIn[b]
			for _, k := range seenKills {
				if t, ok := pd.kills[k]; ok {
					ver = t
				}
			}
			return ver
		}
		var kept []*core.Instr
		for _, in := range b.Code {
			for i := range in.Args {
				in.Args[i] = resolve(in.Args[i])
			}
			if in.Bind != core.NoValue {
				in.Bind = resolve(in.Bind)
			}
			// A null check of a value that was downcast from a safe-ref
			// plane is statically redundant: the safe source value is
			// the checked result (e.g. `new X()` results are already
			// non-null).
			if in.Op == core.OpNullCheck {
				if d := f.Value(in.Args[0]); d != nil && d.Op == core.OpDowncast {
					if src := f.Value(d.Args[0]); src != nil && src.Type == in.Type {
						repl[in.ID] = d.Args[0]
						f.RemoveExcSite(in)
						removed++
						continue
					}
				}
			}
			var mem memVersion = -1
			if in.Op == core.OpGetField || in.Op == core.OpGetElt {
				mem = versionAt(partOf(in))
			}
			key, ok := cseable(in, mem)
			if ok {
				if stack := table[key]; len(stack) > 0 {
					prev := stack[len(stack)-1]
					if in.HasResult() {
						repl[in.ID] = prev
					}
					if in.Op.CanThrow() {
						f.RemoveExcSite(in)
					}
					removed++
					continue // drop the redundant instruction
				}
				if in.HasResult() {
					table[key] = append(table[key], in.ID)
					pushed = append(pushed, key)
				}
			}
			if killsMemory(in.Op) {
				seenKills = append(seenKills, in)
			}
			kept = append(kept, in)
		}
		b.Code = kept
		for _, c := range b.Children {
			walk(c)
		}
		for _, k := range pushed {
			s := table[k]
			table[k] = s[:len(s)-1]
		}
	}
	walk(f.Entry)

	// Phi operands and CST references see the replacements too.
	replaceUses(f, repl)
	// Merging a phi's operands can leave it trivial (phi(a, b) with b
	// replaced by a). Collapse those here, so the pipeline needs no
	// second constant-propagation round to collect them.
	for {
		repl := make(map[core.ValueID]core.ValueID)
		dead := trivialPhis(f, repl)
		if len(dead) == 0 {
			break
		}
		for _, in := range dead {
			removeInstr(in)
		}
		replaceUses(f, repl)
		removed += len(dead)
	}
	_ = m
	return removed
}
