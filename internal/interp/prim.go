package interp

import (
	"fmt"
	"math"

	"safetsa/internal/core"
	"safetsa/internal/rt"
)

// evalPrim evaluates one non-trapping primitive operation. It is shared
// by the reference CST walker and the compiled engine's long-tail
// primitive thunks, so the two engines cannot drift on arithmetic. The
// four trapping division primitives (PIDiv/PIRem/PLDiv/PLRem) must have
// their zero-divisor check performed by the caller before this is
// reached; here they assume a non-zero divisor. Unary operations ignore
// b (the compiled engine passes the scratch register).
func (l *Loader) evalPrim(p core.PrimOp, a, b rt.Value) rt.Value {
	i32a, i32b := a.Int(), b.Int()
	switch p {
	case core.PIAdd:
		return rt.IntValue(i32a + i32b)
	case core.PISub:
		return rt.IntValue(i32a - i32b)
	case core.PIMul:
		return rt.IntValue(i32a * i32b)
	case core.PIDiv:
		return rt.IntValue(rt.IDiv(i32a, i32b))
	case core.PIRem:
		return rt.IntValue(rt.IRem(i32a, i32b))
	case core.PINeg:
		return rt.IntValue(-i32a)
	case core.PIShl:
		return rt.IntValue(i32a << (uint32(i32b) & 31))
	case core.PIShr:
		return rt.IntValue(i32a >> (uint32(i32b) & 31))
	case core.PIAnd:
		return rt.IntValue(i32a & i32b)
	case core.PIOr:
		return rt.IntValue(i32a | i32b)
	case core.PIXor:
		return rt.IntValue(i32a ^ i32b)
	case core.PIEq:
		return rt.BoolValue(i32a == i32b)
	case core.PINe:
		return rt.BoolValue(i32a != i32b)
	case core.PILt:
		return rt.BoolValue(i32a < i32b)
	case core.PILe:
		return rt.BoolValue(i32a <= i32b)
	case core.PIGt:
		return rt.BoolValue(i32a > i32b)
	case core.PIGe:
		return rt.BoolValue(i32a >= i32b)
	case core.PIAbs:
		if i32a < 0 {
			return rt.IntValue(-i32a)
		}
		return rt.IntValue(i32a)
	case core.PIMin:
		if i32a < i32b {
			return rt.IntValue(i32a)
		}
		return rt.IntValue(i32b)
	case core.PIMax:
		if i32a > i32b {
			return rt.IntValue(i32a)
		}
		return rt.IntValue(i32b)
	case core.PI2L:
		return rt.LongValue(int64(i32a))
	case core.PI2D:
		return rt.DoubleValue(float64(i32a))
	case core.PI2C:
		return rt.CharValue(rune(uint16(i32a)))

	case core.PLAdd:
		return rt.LongValue(a.I + b.I)
	case core.PLSub:
		return rt.LongValue(a.I - b.I)
	case core.PLMul:
		return rt.LongValue(a.I * b.I)
	case core.PLDiv:
		return rt.LongValue(rt.LDiv(a.I, b.I))
	case core.PLRem:
		return rt.LongValue(rt.LRem(a.I, b.I))
	case core.PLNeg:
		return rt.LongValue(-a.I)
	case core.PLShl:
		return rt.LongValue(a.I << (uint32(i32b) & 63))
	case core.PLShr:
		return rt.LongValue(a.I >> (uint32(i32b) & 63))
	case core.PLAnd:
		return rt.LongValue(a.I & b.I)
	case core.PLOr:
		return rt.LongValue(a.I | b.I)
	case core.PLXor:
		return rt.LongValue(a.I ^ b.I)
	case core.PLEq:
		return rt.BoolValue(a.I == b.I)
	case core.PLNe:
		return rt.BoolValue(a.I != b.I)
	case core.PLLt:
		return rt.BoolValue(a.I < b.I)
	case core.PLLe:
		return rt.BoolValue(a.I <= b.I)
	case core.PLGt:
		return rt.BoolValue(a.I > b.I)
	case core.PLGe:
		return rt.BoolValue(a.I >= b.I)
	case core.PLAbs:
		if a.I < 0 {
			return rt.LongValue(-a.I)
		}
		return rt.LongValue(a.I)
	case core.PLMin:
		if a.I < b.I {
			return rt.LongValue(a.I)
		}
		return rt.LongValue(b.I)
	case core.PLMax:
		if a.I > b.I {
			return rt.LongValue(a.I)
		}
		return rt.LongValue(b.I)
	case core.PL2I:
		return rt.IntValue(int32(a.I))
	case core.PL2D:
		return rt.DoubleValue(float64(a.I))

	case core.PDAdd:
		return rt.DoubleValue(a.D + b.D)
	case core.PDSub:
		return rt.DoubleValue(a.D - b.D)
	case core.PDMul:
		return rt.DoubleValue(a.D * b.D)
	case core.PDDiv:
		return rt.DoubleValue(a.D / b.D)
	case core.PDRem:
		return rt.DoubleValue(rt.DRem(a.D, b.D))
	case core.PDNeg:
		return rt.DoubleValue(-a.D)
	case core.PDEq:
		return rt.BoolValue(a.D == b.D)
	case core.PDNe:
		return rt.BoolValue(a.D != b.D)
	case core.PDLt:
		return rt.BoolValue(a.D < b.D)
	case core.PDLe:
		return rt.BoolValue(a.D <= b.D)
	case core.PDGt:
		return rt.BoolValue(a.D > b.D)
	case core.PDGe:
		return rt.BoolValue(a.D >= b.D)
	case core.PDAbs:
		return rt.DoubleValue(math.Abs(a.D))
	case core.PDMin:
		return rt.DoubleValue(math.Min(a.D, b.D))
	case core.PDMax:
		return rt.DoubleValue(math.Max(a.D, b.D))
	case core.PDSqrt:
		return rt.DoubleValue(math.Sqrt(a.D))
	case core.PDPow:
		return rt.DoubleValue(math.Pow(a.D, b.D))
	case core.PDFloor:
		return rt.DoubleValue(math.Floor(a.D))
	case core.PDCeil:
		return rt.DoubleValue(math.Ceil(a.D))
	case core.PDLog:
		return rt.DoubleValue(math.Log(a.D))
	case core.PDExp:
		return rt.DoubleValue(math.Exp(a.D))
	case core.PDSin:
		return rt.DoubleValue(math.Sin(a.D))
	case core.PDCos:
		return rt.DoubleValue(math.Cos(a.D))
	case core.PD2I:
		return rt.IntValue(rt.D2I(a.D))
	case core.PD2L:
		return rt.LongValue(rt.D2L(a.D))

	case core.PBNot:
		return rt.BoolValue(a.I == 0)
	case core.PBAnd:
		return rt.BoolValue(a.I != 0 && b.I != 0)
	case core.PBOr:
		return rt.BoolValue(a.I != 0 || b.I != 0)
	case core.PBXor:
		return rt.BoolValue((a.I != 0) != (b.I != 0))
	case core.PBEq:
		return rt.BoolValue((a.I != 0) == (b.I != 0))
	case core.PBNe:
		return rt.BoolValue((a.I != 0) != (b.I != 0))

	case core.PC2I:
		return rt.IntValue(int32(uint16(a.I)))

	case core.PREq:
		return rt.BoolValue(sameRef(a.R, b.R))
	case core.PRNe:
		return rt.BoolValue(!sameRef(a.R, b.R))

	case core.PSConcat:
		return rt.RefValue(l.Env.Concat(a.R, b.R))
	case core.PSOfInt:
		return rt.RefValue(&rt.Str{S: rt.StringOf(a, 'i')})
	case core.PSOfLong:
		return rt.RefValue(&rt.Str{S: rt.StringOf(a, 'l')})
	case core.PSOfDouble:
		return rt.RefValue(&rt.Str{S: rt.StringOf(a, 'd')})
	case core.PSOfBool:
		return rt.RefValue(&rt.Str{S: rt.StringOf(a, 'z')})
	case core.PSOfChar:
		return rt.RefValue(&rt.Str{S: rt.StringOf(a, 'c')})
	case core.PSOfRef:
		return rt.RefValue(&rt.Str{S: rt.RefString(a.R)})
	}
	panic(fmt.Sprintf("interp: unhandled primitive %s", p))
}
