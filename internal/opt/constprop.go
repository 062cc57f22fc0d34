package opt

import (
	"math"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// constProp folds primitive operations over constant operands and
// simplifies phis whose operands have collapsed to a single value. Folded
// instructions are replaced in place by constants, so the paper's claim
// that constant propagation shrinks programs by only 1–2% can be measured
// directly. Returns the number of instructions removed or folded.
func constProp(m *core.Module, f *core.Func) int {
	changed := 0
	for {
		repl := make(map[core.ValueID]core.ValueID)
		consts := make(map[core.ValueID]core.ConstVal)
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op == core.OpConst {
					consts[in.ID] = in.Const
				}
			}
		}
		dead := trivialPhis(f, repl)
		folded := 0
		for _, b := range f.Blocks {
			for _, in := range b.Code {
				if in.Op != core.OpPrim {
					continue
				}
				cv, ok := foldPrim(in, consts)
				if !ok {
					continue
				}
				// Replace the primitive in place with the folded
				// constant.
				in.Op = core.OpConst
				in.Args = nil
				in.Prim = core.PInvalid
				in.Const = cv
				consts[in.ID] = cv
				folded++
			}
		}
		if len(repl) == 0 && folded == 0 {
			break
		}
		for _, in := range dead {
			removeInstr(in)
		}
		replaceUses(f, repl)
		changed += len(dead) + folded
	}
	_ = m
	return changed
}

// trivialPhis finds every phi(x, x, ..., x) whose x is defined in a
// block that structurally dominates the phi's block (which keeps the
// result expressible as an (l, r) reference), records phi -> x in repl
// and returns the phis. Operands that are the phi itself (loop-invariant
// variables produce phi(x, self)) are ignored.
func trivialPhis(f *core.Func, repl map[core.ValueID]core.ValueID) []*core.Instr {
	var dead []*core.Instr
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			x := core.NoValue
			trivial := true
			for _, a := range phi.Args {
				if a == phi.ID {
					continue
				}
				if x == core.NoValue {
					x = a
				} else if a != x {
					trivial = false
					break
				}
			}
			if !trivial || x == core.NoValue {
				continue
			}
			def := f.DefBlock(x)
			if def != nil && def != b && def.Dominates(b) {
				repl[phi.ID] = x
				dead = append(dead, phi)
			}
		}
	}
	return dead
}

// foldPrim evaluates a non-throwing primitive whose operands are all
// constants. String-producing primitives are not folded: their results
// have object identity.
func foldPrim(in *core.Instr, consts map[core.ValueID]core.ConstVal) (core.ConstVal, bool) {
	args := make([]core.ConstVal, len(in.Args))
	for i, a := range in.Args {
		cv, ok := consts[a]
		if !ok {
			return core.ConstVal{}, false
		}
		args[i] = cv
	}
	ci := func(v int32) (core.ConstVal, bool) {
		return core.ConstVal{Kind: core.KInt, I: int64(v)}, true
	}
	cl := func(v int64) (core.ConstVal, bool) {
		return core.ConstVal{Kind: core.KLong, I: v}, true
	}
	cd := func(v float64) (core.ConstVal, bool) {
		return core.ConstVal{Kind: core.KDouble, D: v}, true
	}
	cb := func(v bool) (core.ConstVal, bool) {
		i := int64(0)
		if v {
			i = 1
		}
		return core.ConstVal{Kind: core.KBool, I: i}, true
	}
	cc := func(v uint16) (core.ConstVal, bool) {
		return core.ConstVal{Kind: core.KChar, I: int64(v)}, true
	}
	i32 := func(i int) int32 { return int32(args[i].I) }
	i64v := func(i int) int64 { return args[i].I }
	f64 := func(i int) float64 { return args[i].D }
	bl := func(i int) bool { return args[i].I != 0 }

	switch in.Prim {
	case core.PIAdd:
		return ci(i32(0) + i32(1))
	case core.PISub:
		return ci(i32(0) - i32(1))
	case core.PIMul:
		return ci(i32(0) * i32(1))
	case core.PINeg:
		return ci(-i32(0))
	case core.PIShl:
		return ci(i32(0) << (uint32(i32(1)) & 31))
	case core.PIShr:
		return ci(i32(0) >> (uint32(i32(1)) & 31))
	case core.PIAnd:
		return ci(i32(0) & i32(1))
	case core.PIOr:
		return ci(i32(0) | i32(1))
	case core.PIXor:
		return ci(i32(0) ^ i32(1))
	case core.PIEq:
		return cb(i32(0) == i32(1))
	case core.PINe:
		return cb(i32(0) != i32(1))
	case core.PILt:
		return cb(i32(0) < i32(1))
	case core.PILe:
		return cb(i32(0) <= i32(1))
	case core.PIGt:
		return cb(i32(0) > i32(1))
	case core.PIGe:
		return cb(i32(0) >= i32(1))
	case core.PIAbs:
		v := i32(0)
		if v < 0 {
			v = -v
		}
		return ci(v)
	case core.PIMin:
		if i32(0) < i32(1) {
			return ci(i32(0))
		}
		return ci(i32(1))
	case core.PIMax:
		if i32(0) > i32(1) {
			return ci(i32(0))
		}
		return ci(i32(1))
	case core.PI2L:
		return cl(int64(i32(0)))
	case core.PI2D:
		return cd(float64(i32(0)))
	case core.PI2C:
		return cc(uint16(i32(0)))

	case core.PLAdd:
		return cl(i64v(0) + i64v(1))
	case core.PLSub:
		return cl(i64v(0) - i64v(1))
	case core.PLMul:
		return cl(i64v(0) * i64v(1))
	case core.PLNeg:
		return cl(-i64v(0))
	case core.PLShl:
		return cl(i64v(0) << (uint32(i32(1)) & 63))
	case core.PLShr:
		return cl(i64v(0) >> (uint32(i32(1)) & 63))
	case core.PLAnd:
		return cl(i64v(0) & i64v(1))
	case core.PLOr:
		return cl(i64v(0) | i64v(1))
	case core.PLXor:
		return cl(i64v(0) ^ i64v(1))
	case core.PLEq:
		return cb(i64v(0) == i64v(1))
	case core.PLNe:
		return cb(i64v(0) != i64v(1))
	case core.PLLt:
		return cb(i64v(0) < i64v(1))
	case core.PLLe:
		return cb(i64v(0) <= i64v(1))
	case core.PLGt:
		return cb(i64v(0) > i64v(1))
	case core.PLGe:
		return cb(i64v(0) >= i64v(1))
	case core.PL2I:
		return ci(int32(i64v(0)))
	case core.PL2D:
		return cd(float64(i64v(0)))

	case core.PDAdd:
		return cd(f64(0) + f64(1))
	case core.PDSub:
		return cd(f64(0) - f64(1))
	case core.PDMul:
		return cd(f64(0) * f64(1))
	case core.PDDiv:
		return cd(f64(0) / f64(1))
	case core.PDNeg:
		return cd(-f64(0))
	case core.PDEq:
		return cb(f64(0) == f64(1))
	case core.PDNe:
		return cb(f64(0) != f64(1))
	case core.PDLt:
		return cb(f64(0) < f64(1))
	case core.PDLe:
		return cb(f64(0) <= f64(1))
	case core.PDGt:
		return cb(f64(0) > f64(1))
	case core.PDGe:
		return cb(f64(0) >= f64(1))
	case core.PDAbs:
		return cd(math.Abs(f64(0)))
	case core.PDSqrt:
		return cd(math.Sqrt(f64(0)))
	case core.PD2I:
		return ci(rt.D2I(f64(0)))
	case core.PD2L:
		return cl(rt.D2L(f64(0)))

	case core.PBNot:
		return cb(!bl(0))
	case core.PBAnd:
		return cb(bl(0) && bl(1))
	case core.PBOr:
		return cb(bl(0) || bl(1))
	case core.PBXor:
		return cb(bl(0) != bl(1))
	case core.PBEq:
		return cb(bl(0) == bl(1))
	case core.PBNe:
		return cb(bl(0) != bl(1))

	case core.PC2I:
		return ci(int32(uint16(args[0].I)))
	}
	return core.ConstVal{}, false
}
