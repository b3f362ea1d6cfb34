// Package hdl is an event-driven hardware simulator with VHDL semantics.
// It stands in for the Synopsys VHDL System Simulator (VSS) of the paper:
// IEEE-1164 nine-valued logic, resolved signals with multiple drivers,
// delta cycles, processes with sensitivity lists, and inertial delay
// (transport delay, Driver.SetTransport, is a kernel-test hook in
// export_test.go). The co-simulation entity of package cosim instantiates its
// bit-level side inside this simulator, exactly as the paper instantiates
// a C-language co-simulation entity inside VSS.
package hdl

import "strings"

// Logic is one IEEE-1164 std_logic value.
type Logic byte

// The nine std_logic values.
const (
	U  Logic = iota // uninitialized
	X               // forcing unknown
	L0              // forcing 0
	L1              // forcing 1
	Z               // high impedance
	W               // weak unknown
	WL              // weak 0
	WH              // weak 1
	DC              // don't care
)

var logicNames = [9]byte{'U', 'X', '0', '1', 'Z', 'W', 'L', 'H', '-'}

// String returns the VHDL character literal for the value.
func (l Logic) String() string {
	if int(l) < len(logicNames) {
		return string(logicNames[l])
	}
	return "?"
}

// resolutionTable is the IEEE-1164 resolution function for two drivers.
var resolutionTable = [9][9]Logic{
	//         U  X  0  1  Z  W  L  H  -
	/* U */ {U, U, U, U, U, U, U, U, U},
	/* X */ {U, X, X, X, X, X, X, X, X},
	/* 0 */ {U, X, L0, X, L0, L0, L0, L0, X},
	/* 1 */ {U, X, X, L1, L1, L1, L1, L1, X},
	/* Z */ {U, X, L0, L1, Z, W, WL, WH, X},
	/* W */ {U, X, L0, L1, W, W, W, W, X},
	/* L */ {U, X, L0, L1, WL, W, WL, W, X},
	/* H */ {U, X, L0, L1, WH, W, W, WH, X},
	/* - */ {U, X, X, X, X, X, X, X, X},
}

// Resolve combines two driver contributions per IEEE 1164.
func Resolve(a, b Logic) Logic { return resolutionTable[a][b] }

// to01 reduces a value to the {0,1,X} domain: weak values convert to their
// strong equivalents, everything else becomes X.
func (l Logic) to01() Logic {
	switch l {
	case L0, WL:
		return L0
	case L1, WH:
		return L1
	default:
		return X
	}
}

// IsHigh reports whether the value reads as logical 1 ('1' or 'H').
func (l Logic) IsHigh() bool { return l.to01() == L1 }

// IsLow reports whether the value reads as logical 0 ('0' or 'L').
func (l Logic) IsLow() bool { return l.to01() == L0 }

// LV is a logic vector. Index 0 is the least significant bit, matching
// VHDL's "downto" convention read right to left: LV{b0, b1, ...} prints as
// "...b1b0".
type LV []Logic

// NewLV returns a vector of the given width with every bit set to init.
func NewLV(width int, init Logic) LV {
	v := make(LV, width)
	for i := range v {
		v[i] = init
	}
	return v
}

// FromUint returns a vector of the given width holding the unsigned value
// (truncated to width bits).
func FromUint(val uint64, width int) LV {
	v := make(LV, width)
	for i := 0; i < width; i++ {
		if val&(1<<uint(i)) != 0 {
			v[i] = L1
		} else {
			v[i] = L0
		}
	}
	return v
}

// String prints the vector most significant bit first.
func (v LV) String() string {
	var b strings.Builder
	for i := len(v) - 1; i >= 0; i-- {
		b.WriteString(v[i].String())
	}
	return b.String()
}

// Uint converts the vector to an unsigned integer. ok is false when any
// bit is not a defined binary level or the width exceeds 64.
func (v LV) Uint() (val uint64, ok bool) {
	if len(v) > 64 {
		return 0, false
	}
	for i, l := range v {
		switch l.to01() {
		case L1:
			val |= 1 << uint(i)
		case L0:
		default:
			return 0, false
		}
	}
	return val, true
}

// Equal reports exact value equality (same width, same std_logic values).
func (v LV) Equal(o LV) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// TwoState reports whether every bit is a forcing 0 or 1 — no
// uninitialized, unknown, high-impedance, weak or don't-care values. A
// signal whose transitions are all two-state on both sides travels on the
// packed data plane as words, skipping 9-value resolution.
func (v LV) TwoState() bool {
	for _, l := range v {
		if l != L0 && l != L1 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the vector.
func (v LV) Clone() LV {
	c := make(LV, len(v))
	copy(c, v)
	return c
}
