// Package conformance generates and manages conformance test vectors, the
// "customized/standardized conformance test vectors" stimulus category of
// Fig. 1: deterministic cell sequences that probe protocol properties —
// header error handling, idle-cell transparency, boundary identifier
// values — rather than statistical behaviour. Vectors are raw 53-octet
// images so that deliberately invalid cells (bad HEC) can be expressed.
package conformance

import (
	"fmt"

	"castanet/internal/atm"
)

// Vector is one test stimulus: a raw cell image with an expectation.
type Vector struct {
	Name string
	// Image is the 53-octet cell, possibly deliberately invalid.
	Image [atm.CellBytes]byte
	// ExpectDiscard marks vectors the hardware must drop (bad HEC,
	// unknown VC when the table is fixed).
	ExpectDiscard bool
}

// Suite is a named list of vectors.
type Suite struct {
	Name    string
	Vectors []Vector
}

// cellImage builds a valid image.
func cellImage(h atm.Header, seq uint32) [atm.CellBytes]byte {
	c := &atm.Cell{Header: h, Seq: seq}
	c.StampSeq()
	return c.Marshal()
}

// StandardSuite generates the standardized conformance vectors for a
// device configured with the given known connection. It exercises HEC
// corruption in every header octet, idle/unassigned cell transparency,
// and the boundary values of each header field.
func StandardSuite(known atm.VC) *Suite {
	s := &Suite{Name: "standard"}
	seq := uint32(0x51000000)
	add := func(name string, img [atm.CellBytes]byte, discard bool) {
		s.Vectors = append(s.Vectors, Vector{Name: name, Image: img, ExpectDiscard: discard})
	}

	// 1. A plain valid cell on the known connection.
	add("valid-baseline", cellImage(atm.Header{VPI: known.VPI, VCI: known.VCI}, seq), false)
	seq++

	// 2. HEC corruption: flip one bit in each of the five header octets.
	for b := 0; b < atm.HeaderBytes; b++ {
		img := cellImage(atm.Header{VPI: known.VPI, VCI: known.VCI}, seq)
		seq++
		img[b] ^= 0x01
		add(fmt.Sprintf("hec-corrupt-octet%d", b), img, true)
	}

	// 3. Idle and unassigned cells must be transparent (not switched, not
	// charged, not flagged).
	idle := atm.IdleCell()
	add("idle-cell", idle.Marshal(), true)
	un := &atm.Cell{}
	add("unassigned-cell", un.Marshal(), true)

	// 4. Header field boundary values on the known VC.
	for _, pti := range []byte{0, 1, atm.PTIEndToEndOAM, atm.PTIResourceMgmt, 7} {
		add(fmt.Sprintf("pti-%d", pti),
			cellImage(atm.Header{VPI: known.VPI, VCI: known.VCI, PTI: pti}, seq), false)
		seq++
	}
	for _, clp := range []byte{0, 1} {
		add(fmt.Sprintf("clp-%d", clp),
			cellImage(atm.Header{VPI: known.VPI, VCI: known.VCI, CLP: clp}, seq), false)
		seq++
	}
	add("gfc-max", cellImage(atm.Header{GFC: 0x0F, VPI: known.VPI, VCI: known.VCI}, seq), false)
	seq++

	// 5. Unknown connections at identifier extremes must be discarded (or
	// flagged) without disturbing the device.
	add("unknown-vpi-max", cellImage(atm.Header{VPI: 0xFF, VCI: known.VCI}, seq), true)
	seq++
	add("unknown-vci-max", cellImage(atm.Header{VPI: known.VPI, VCI: 0xFFFF}, seq), true)
	seq++
	add("unknown-vci-1", cellImage(atm.Header{VPI: known.VPI, VCI: 1}, seq), true)
	return s
}
