package hdl

// Bit-packed two-state values: the packed data plane (DESIGN.md §18). A
// logic vector whose bits are all forcing 0/1 is stored as one uint64
// word, bit i of the word mirroring bit i of the vector (index 0 = least
// significant, matching LV). The independent std_logic bits of a bus are
// thereby packed into one machine word, so assigning, comparing and
// resolving a two-state value of up to 64 bits is a word operation
// instead of a walk over nine-value vectors.
//
// Packing is strictly a mirror: the nine-value LV representation remains
// the source of truth for any value containing U/X/Z/weak/don't-care bits,
// and the event kernel's resolution semantics are untouched. The packed
// word is valid only while the signal's pknown flag is set.

// packMask returns the valid-bit mask for a width (width must be 1..64).
func packMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// PackTwoState packs the vector into a uint64, bit i of the word taking
// bit i of the vector. ok is false when any bit is not a forcing 0/1 or
// the width exceeds 64 — such values stay on the nine-value path.
func (v LV) PackTwoState() (word uint64, ok bool) {
	if len(v) > 64 {
		return 0, false
	}
	for i, l := range v {
		switch l {
		case L1:
			word |= uint64(1) << uint(i)
		case L0:
		default:
			return 0, false
		}
	}
	return word, true
}

// unpackInto writes the packed word into an existing vector (no
// allocation): bit i of the word becomes L0/L1 at index i.
func unpackInto(v LV, word uint64) {
	for i := range v {
		if word&(uint64(1)<<uint(i)) != 0 {
			v[i] = L1
		} else {
			v[i] = L0
		}
	}
}

// fromPacked materializes a packed word as a fresh vector.
func fromPacked(word uint64, width int) LV {
	v := make(LV, width)
	unpackInto(v, word)
	return v
}
