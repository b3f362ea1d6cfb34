// Package atm implements the ATM substrate shared by every layer of the
// co-verification environment: the 53-octet cell with its header fields and
// HEC protection, cell timing for standard link rates, VPI/VCI translation
// and usage-parameter-control policing. The network simulator carries cells
// as abstract structs (the "struct atmdata" of Fig. 4); the abstraction
// interfaces of package mapping serialize them to the bit level.
package atm

import (
	"errors"
	"fmt"

	"castanet/internal/sim"
)

// Cell geometry.
const (
	HeaderBytes  = 5
	PayloadBytes = 48
	CellBytes    = HeaderBytes + PayloadBytes // 53 octets
)

// LinkRateSTM1 is the SDH STM-1 / SONET OC-3 payload rate carrying ATM,
// 155.52 Mbit/s, the rate the paper's 1:400 time-scale discussion assumes.
const LinkRateSTM1 = 155.52e6

// CellTime returns the duration of one cell slot on a link of the given
// bit rate.
func CellTime(bitsPerSecond float64) sim.Duration {
	return sim.FromSeconds(float64(CellBytes*8) / bitsPerSecond)
}

// PTI payload-type indicator values (ITU-T I.361).
const (
	PTIUserData0    = 0 // user data, no congestion, SDU type 0
	PTIUserData1    = 1 // user data, no congestion, SDU type 1
	PTICongestion0  = 2
	PTICongestion1  = 3
	PTISegmentOAM   = 4
	PTIEndToEndOAM  = 5
	PTIResourceMgmt = 6
	PTIReserved     = 7
)

// Header is a UNI cell header: GFC(4) VPI(8) VCI(16) PTI(3) CLP(1), plus
// the HEC octet computed over the first four octets.
type Header struct {
	GFC byte   // generic flow control, 4 bits
	VPI byte   // virtual path identifier, 8 bits at the UNI
	VCI uint16 // virtual channel identifier
	PTI byte   // payload type indicator, 3 bits
	CLP byte   // cell loss priority, 1 bit
}

// Cell is one ATM cell: header plus 48 octets of payload. This is the
// abstract data type exchanged between processes in the network simulator.
type Cell struct {
	Header
	Payload [PayloadBytes]byte

	// Seq is a monotonically increasing stamp assigned by traffic sources;
	// it is carried in the first payload octets by the test-bench encoders
	// so that reference and DUT outputs can be matched cell for cell.
	Seq uint32
}

// VC identifies a virtual connection.
type VC struct {
	VPI byte
	VCI uint16
}

// String formats the connection as "vpi.vci".
func (v VC) String() string { return fmt.Sprintf("%d.%d", v.VPI, v.VCI) }

// VC returns the header's connection identifier.
func (h Header) VC() VC { return VC{VPI: h.VPI, VCI: h.VCI} }

// IsIdle reports whether the header marks an idle cell (ITU-T I.432:
// VPI=0, VCI=0, PTI=0, CLP=1).
func (h Header) IsIdle() bool {
	return h.GFC == 0 && h.VPI == 0 && h.VCI == 0 && h.PTI == 0 && h.CLP == 1
}

// IsUnassigned reports whether the header marks an unassigned cell (CLP=0
// variant).
func (h Header) IsUnassigned() bool {
	return h.GFC == 0 && h.VPI == 0 && h.VCI == 0 && h.PTI == 0 && h.CLP == 0
}

// IdleCell returns a fresh idle cell with the standard 0x6A payload fill.
func IdleCell() *Cell {
	c := &Cell{Header: Header{CLP: 1}}
	for i := range c.Payload {
		c.Payload[i] = 0x6A
	}
	return c
}

// hecTable is the CRC-8 table for polynomial x^8 + x^2 + x + 1 (0x07).
var hecTable [256]byte

func init() {
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		hecTable[i] = crc
	}
}

// HEC computes the header error control octet over the four header octets:
// CRC-8 with generator x^8+x^2+x+1, XORed with the 0x55 coset per
// ITU-T I.432 to improve cell delineation behaviour.
func HEC(h0, h1, h2, h3 byte) byte {
	var crc byte
	for _, b := range [...]byte{h0, h1, h2, h3} {
		crc = hecTable[crc^b]
	}
	return crc ^ 0x55
}

// MarshalHeader packs the header fields plus HEC into 5 octets.
func (h Header) MarshalHeader() [HeaderBytes]byte {
	var b [HeaderBytes]byte
	b[0] = h.GFC<<4 | h.VPI>>4
	b[1] = h.VPI<<4 | byte(h.VCI>>12)
	b[2] = byte(h.VCI >> 4)
	b[3] = byte(h.VCI)<<4 | h.PTI<<1 | h.CLP&1
	b[4] = HEC(b[0], b[1], b[2], b[3])
	return b
}

// ErrHEC is returned when a received header fails its HEC check.
var ErrHEC = errors.New("atm: header error control mismatch")

// UnmarshalHeader unpacks 5 octets into header fields, verifying the HEC.
func UnmarshalHeader(b [HeaderBytes]byte) (Header, error) {
	var h Header
	if HEC(b[0], b[1], b[2], b[3]) != b[4] {
		return h, ErrHEC
	}
	h.GFC = b[0] >> 4
	h.VPI = b[0]<<4 | b[1]>>4
	h.VCI = uint16(b[1]&0x0F)<<12 | uint16(b[2])<<4 | uint16(b[3])>>4
	h.PTI = b[3] >> 1 & 0x07
	h.CLP = b[3] & 1
	return h, nil
}

// ImageHeader unpacks the header that opens a cell image, verifying the
// HEC.
func ImageHeader(img [CellBytes]byte) (Header, error) {
	return UnmarshalHeader([HeaderBytes]byte(img[:HeaderBytes]))
}

// ParseImage checks that data is one cell image with a valid HEC and
// returns the image: the path from a cell message to a port, with no
// *Cell in between.
func ParseImage(data []byte) (img [CellBytes]byte, err error) {
	if len(data) != CellBytes {
		return img, fmt.Errorf("atm: cell image is %d bytes, want %d", len(data), CellBytes)
	}
	img = [CellBytes]byte(data)
	_, err = ImageHeader(img)
	return img, err
}

// Seq reads the sequence stamp from the first four payload octets of a
// cell image (see Cell.StampSeq).
func Seq(img [CellBytes]byte) uint32 {
	p := img[HeaderBytes:]
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}

// Marshal serializes the full 53-octet cell. The Seq stamp is embedded in
// the first four payload octets so it survives the trip through bit-level
// hardware; real payload content starts afterwards in our test benches.
func (c *Cell) Marshal() [CellBytes]byte {
	var out [CellBytes]byte
	hdr := c.MarshalHeader()
	copy(out[:HeaderBytes], hdr[:])
	copy(out[HeaderBytes:], c.Payload[:])
	return out
}

// Unmarshal parses a 53-octet cell, verifying the HEC.
func Unmarshal(b [CellBytes]byte) (*Cell, error) {
	h, err := ImageHeader(b)
	if err != nil {
		return nil, err
	}
	c := &Cell{Header: h, Seq: Seq(b)}
	copy(c.Payload[:], b[HeaderBytes:])
	return c, nil
}

// StampSeq writes the Seq value into the payload prefix (done by encoders
// before marshalling).
func (c *Cell) StampSeq() {
	c.Payload[0] = byte(c.Seq >> 24)
	c.Payload[1] = byte(c.Seq >> 16)
	c.Payload[2] = byte(c.Seq >> 8)
	c.Payload[3] = byte(c.Seq)
}

// Clone returns a deep copy of the cell.
func (c *Cell) Clone() *Cell {
	d := *c
	return &d
}

// String summarizes the cell for logs and mismatch reports.
func (c *Cell) String() string {
	kind := ""
	if c.IsIdle() {
		kind = " idle"
	}
	return fmt.Sprintf("cell{vc=%s pti=%d clp=%d seq=%d%s}", c.VC(), c.PTI, c.CLP, c.Seq, kind)
}
