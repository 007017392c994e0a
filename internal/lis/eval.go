package lis

import (
	"math/bits"
	"strings"
)

// The action language's operator and builtin semantics. Each pure builtin
// and each guarded operator (one whose Go operator would panic or differ on
// some input) is one exported function. EvalUnaryOp, EvalBinaryOp and
// EvalPureBuiltin call them for the constant folder and the closure
// compiler (internal/core), and the code the Go emitter generates for the
// AOT runner calls them by name, so every backend shares one definition.

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Div is unsigned division; division by zero yields 0.
func Div(l, r uint64) uint64 {
	if r == 0 {
		return 0
	}
	return l / r
}

// Rem is the unsigned remainder; a zero divisor yields 0.
func Rem(l, r uint64) uint64 {
	if r == 0 {
		return 0
	}
	return l % r
}

// Shl shifts left; shifts of 64 or more yield 0.
func Shl(l, r uint64) uint64 {
	if r >= 64 {
		return 0
	}
	return l << r
}

// Shr shifts right logically; shifts of 64 or more yield 0.
func Shr(l, r uint64) uint64 {
	if r >= 64 {
		return 0
	}
	return l >> r
}

// EvalUnaryOp applies a unary operator with the action language's
// semantics.
func EvalUnaryOp(op Op, x uint64) uint64 {
	switch op {
	case OpNeg:
		return -x
	case OpInv:
		return ^x
	default: // OpNot
		return b2u(x == 0)
	}
}

// EvalBinaryOp applies a binary operator with the action language's
// unsigned 64-bit semantics (shifts >= 64 yield 0; division by zero yields
// 0). It is the single definition of operator semantics, shared by the
// constant folder, the closure compiler (internal/core) and, through Div,
// Rem, Shl and Shr, the generated AOT runners.
func EvalBinaryOp(op Op, l, r uint64) uint64 {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		return Div(l, r)
	case OpRem:
		return Rem(l, r)
	case OpAnd:
		return l & r
	case OpOr:
		return l | r
	case OpXor:
		return l ^ r
	case OpShl:
		return Shl(l, r)
	case OpShr:
		return Shr(l, r)
	case OpEq:
		return b2u(l == r)
	case OpNe:
		return b2u(l != r)
	case OpLt:
		return b2u(l < r)
	case OpLe:
		return b2u(l <= r)
	case OpGt:
		return b2u(l > r)
	case OpGe:
		return b2u(l >= r)
	case OpLand:
		return b2u(l != 0 && r != 0)
	case OpLor:
		return b2u(l != 0 || r != 0)
	}
	return 0
}

// FuncName is the name of the function of this package that implements
// the pure builtin b (sext8: Sext8). Generated code calls it by this name.
func (b *Builtin) FuncName() string { return strings.ToUpper(b.Name[:1]) + b.Name[1:] }

// EvalPureBuiltin evaluates a pure builtin on concrete arguments; it is the
// single definition of builtin semantics, shared by the constant folder,
// the closure compiler (internal/core) and the generated AOT runners, which
// call the same per-builtin functions.
func EvalPureBuiltin(b *Builtin, a []uint64) uint64 {
	switch b.Name {
	case "sext8":
		return Sext8(a[0])
	case "sext16":
		return Sext16(a[0])
	case "sext32":
		return Sext32(a[0])
	case "sext":
		return Sext(a[0], a[1])
	case "trunc":
		return Trunc(a[0], a[1])
	case "bits":
		return Bits(a[0], a[1], a[2])
	case "asr":
		return Asr(a[0], a[1])
	case "lts":
		return Lts(a[0], a[1])
	case "les":
		return Les(a[0], a[1])
	case "gts":
		return Gts(a[0], a[1])
	case "ges":
		return Ges(a[0], a[1])
	case "sdiv":
		return Sdiv(a[0], a[1])
	case "srem":
		return Srem(a[0], a[1])
	case "mulhu":
		return Mulhu(a[0], a[1])
	case "mulhs":
		return Mulhs(a[0], a[1])
	case "rotl32":
		return Rotl32(a[0], a[1])
	case "rotr32":
		return Rotr32(a[0], a[1])
	case "rotl64":
		return Rotl64(a[0], a[1])
	case "rotr64":
		return Rotr64(a[0], a[1])
	case "clz32":
		return Clz32(a[0])
	case "clz64":
		return Clz64(a[0])
	case "ctz32":
		return Ctz32(a[0])
	case "ctz64":
		return Ctz64(a[0])
	case "popcnt":
		return Popcnt(a[0])
	}
	panic("lis: EvalPureBuiltin: not a pure builtin: " + b.Name)
}

// Sext8 sign-extends the low 8 bits.
func Sext8(a uint64) uint64 { return uint64(int64(int8(a))) }

// Sext16 sign-extends the low 16 bits.
func Sext16(a uint64) uint64 { return uint64(int64(int16(a))) }

// Sext32 sign-extends the low 32 bits.
func Sext32(a uint64) uint64 { return uint64(int64(int32(a))) }

// Sext sign-extends the low w bits; w of 0 or at least 64 returns a.
func Sext(a, w uint64) uint64 {
	if w == 0 || w >= 64 {
		return a
	}
	x := a & (1<<w - 1)
	if x&(1<<(w-1)) != 0 {
		x |= ^uint64(0) << w
	}
	return x
}

// Trunc keeps the low w bits; w of at least 64 returns a.
func Trunc(a, w uint64) uint64 {
	if w >= 64 {
		return a
	}
	return a & (1<<w - 1)
}

// Bits extracts bits hi..lo; an empty or out-of-range span yields 0.
func Bits(a, hi, lo uint64) uint64 {
	if hi >= 64 || lo > hi {
		return 0
	}
	return (a >> lo) & (1<<(hi-lo+1) - 1)
}

// Asr shifts right arithmetically; shifts of 64 or more act as 63.
func Asr(a, s uint64) uint64 {
	if s >= 64 {
		s = 63
	}
	return uint64(int64(a) >> s)
}

// Lts is the signed a < b.
func Lts(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) }

// Les is the signed a <= b.
func Les(a, b uint64) uint64 { return b2u(int64(a) <= int64(b)) }

// Gts is the signed a > b.
func Gts(a, b uint64) uint64 { return b2u(int64(a) > int64(b)) }

// Ges is the signed a >= b.
func Ges(a, b uint64) uint64 { return b2u(int64(a) >= int64(b)) }

// Sdiv is signed division: a zero divisor yields 0, and the one
// overflowing quotient wraps, like hardware.
func Sdiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	if int64(a) == -1<<63 && int64(b) == -1 {
		return a
	}
	return uint64(int64(a) / int64(b))
}

// Srem is the signed remainder: a zero divisor, and the one overflowing
// division, yield 0.
func Srem(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	if int64(a) == -1<<63 && int64(b) == -1 {
		return 0
	}
	return uint64(int64(a) % int64(b))
}

// Mulhu is the high 64 bits of the unsigned 128-bit product.
func Mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// Mulhs is the high 64 bits of the signed 128-bit product.
func Mulhs(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	if int64(a) < 0 {
		hi -= b
	}
	if int64(b) < 0 {
		hi -= a
	}
	return hi
}

// Rotl32 rotates the low 32 bits left by s mod 32.
func Rotl32(a, s uint64) uint64 { return uint64(bits.RotateLeft32(uint32(a), int(s&31))) }

// Rotr32 rotates the low 32 bits right by s mod 32.
func Rotr32(a, s uint64) uint64 { return uint64(bits.RotateLeft32(uint32(a), -int(s&31))) }

// Rotl64 rotates left by s mod 64.
func Rotl64(a, s uint64) uint64 { return bits.RotateLeft64(a, int(s&63)) }

// Rotr64 rotates right by s mod 64.
func Rotr64(a, s uint64) uint64 { return bits.RotateLeft64(a, -int(s&63)) }

// Clz32 counts the leading zeros of the low 32 bits.
func Clz32(a uint64) uint64 { return uint64(bits.LeadingZeros32(uint32(a))) }

// Clz64 counts the leading zeros.
func Clz64(a uint64) uint64 { return uint64(bits.LeadingZeros64(a)) }

// Ctz32 counts the trailing zeros of the low 32 bits.
func Ctz32(a uint64) uint64 { return uint64(bits.TrailingZeros32(uint32(a))) }

// Ctz64 counts the trailing zeros.
func Ctz64(a uint64) uint64 { return uint64(bits.TrailingZeros64(a)) }

// Popcnt counts the set bits.
func Popcnt(a uint64) uint64 { return uint64(bits.OnesCount64(a)) }
