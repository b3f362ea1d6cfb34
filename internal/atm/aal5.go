package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements AAL5 (ITU-T I.363.5), the adaptation layer that
// carries variable-length frames over the cell stream. The higher-layer
// software the paper's co-design flow models in C/C++ exchanges frames;
// the hardware moves cells — AAL5 is the boundary between the two views,
// so the verification environment needs both directions: segmentation for
// stimulus generation and reassembly for response checking.

// AAL5 trailer layout (last 8 octets of the final cell's payload):
// CPCS-UU(1) CPI(1) Length(2) CRC-32(4).
const aal5TrailerBytes = 8

// MaxAAL5Payload bounds the CPCS-PDU payload length (the 16-bit length
// field).
const MaxAAL5Payload = 65535

// aal5CRCTable is the CRC-32 table for the AAL5 generator polynomial
// (IEEE 802.3 polynomial, MSB-first/non-reflected form as used by AAL5).
var aal5CRCTable [256]uint32

func init() {
	const poly = 0x04C11DB7
	for i := 0; i < 256; i++ {
		crc := uint32(i) << 24
		for b := 0; b < 8; b++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		aal5CRCTable[i] = crc
	}
}

// aal5CRC computes the AAL5 CRC-32 over data (initial value all ones,
// final complement, non-reflected).
func aal5CRC(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = crc<<8 ^ aal5CRCTable[byte(crc>>24)^b]
	}
	return ^crc
}

// SegmentAAL5 converts a frame into the cell sequence of one AAL5
// CPCS-PDU on the given connection: payload + padding + 8-octet trailer,
// split into 48-octet cells, the last cell marked with PTI SDU-type 1.
func SegmentAAL5(vc VC, payload []byte) ([]*Cell, error) {
	if len(payload) > MaxAAL5Payload {
		return nil, fmt.Errorf("atm: AAL5 payload of %d bytes exceeds %d", len(payload), MaxAAL5Payload)
	}
	// Total PDU length: payload + pad + trailer, multiple of 48.
	total := len(payload) + aal5TrailerBytes
	if rem := total % PayloadBytes; rem != 0 {
		total += PayloadBytes - rem
	}
	pdu := make([]byte, total)
	copy(pdu, payload)
	// Trailer: UU=0, CPI=0, Length, CRC over the whole PDU with the CRC
	// field zeroed.
	binary.BigEndian.PutUint16(pdu[total-6:], uint16(len(payload)))
	crc := aal5CRC(pdu[:total-4])
	binary.BigEndian.PutUint32(pdu[total-4:], crc)

	nCells := total / PayloadBytes
	cells := make([]*Cell, nCells)
	for i := 0; i < nCells; i++ {
		c := &Cell{Header: Header{VPI: vc.VPI, VCI: vc.VCI, PTI: PTIUserData0}}
		copy(c.Payload[:], pdu[i*PayloadBytes:(i+1)*PayloadBytes])
		if i == nCells-1 {
			c.PTI = PTIUserData1 // end of CPCS-PDU
		}
		cells[i] = c
	}
	return cells, nil
}

// AAL5 reassembly errors.
var (
	ErrAAL5CRC    = errors.New("atm: AAL5 CRC-32 mismatch")
	ErrAAL5Length = errors.New("atm: AAL5 length field inconsistent")
)

// Reassembler rebuilds AAL5 frames from a cell stream, keyed per
// connection. Cells of different VCs may interleave arbitrarily (that is
// the point of AAL5's end-of-PDU bit).
type Reassembler struct {
	// OnFrame receives each completed frame.
	OnFrame func(vc VC, payload []byte)
	// OnError receives reassembly failures (CRC, length).
	OnError func(vc VC, err error)
	// MaxPDU guards against unbounded buffering on a broken stream;
	// zero means MaxAAL5Payload.
	MaxPDU int

	partial map[VC][]byte

	Frames uint64
	Errors uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{partial: make(map[VC][]byte)}
}

// Push processes one cell. Idle/unassigned and OAM cells are ignored.
func (r *Reassembler) Push(c *Cell) {
	if c.IsIdle() || c.IsUnassigned() || c.PTI >= PTISegmentOAM {
		return
	}
	vc := c.VC()
	buf := append(r.partial[vc], c.Payload[:]...)
	limit := r.MaxPDU
	if limit == 0 {
		limit = MaxAAL5Payload
	}
	if c.PTI != PTIUserData1 && c.PTI != PTICongestion1 {
		if len(buf) > limit+aal5TrailerBytes+PayloadBytes {
			// Lost end-of-PDU: drop the oversized partial frame.
			delete(r.partial, vc)
			r.fail(vc, ErrAAL5Length)
			return
		}
		r.partial[vc] = buf
		return
	}
	// End of PDU: validate trailer.
	delete(r.partial, vc)
	if len(buf) < aal5TrailerBytes {
		r.fail(vc, ErrAAL5Length)
		return
	}
	wantCRC := binary.BigEndian.Uint32(buf[len(buf)-4:])
	if aal5CRC(buf[:len(buf)-4]) != wantCRC {
		r.fail(vc, ErrAAL5CRC)
		return
	}
	length := int(binary.BigEndian.Uint16(buf[len(buf)-6 : len(buf)-4]))
	if length > len(buf)-aal5TrailerBytes {
		r.fail(vc, ErrAAL5Length)
		return
	}
	// Padding must fit within the final cell (otherwise a cell was lost).
	if pad := len(buf) - aal5TrailerBytes - length; pad >= PayloadBytes {
		r.fail(vc, ErrAAL5Length)
		return
	}
	r.Frames++
	if r.OnFrame != nil {
		payload := make([]byte, length)
		copy(payload, buf[:length])
		r.OnFrame(vc, payload)
	}
}

func (r *Reassembler) fail(vc VC, err error) {
	r.Errors++
	if r.OnError != nil {
		r.OnError(vc, err)
	}
}
