// Package durable is the one on-disk format for CASTANET's resumable
// state. The campaign checkpoint (CKPT) and the explorer state file
// (EXPL) share its frame, its atomic write and its field codec; they
// differ only in magic, version and payload schema.
//
// File layout (all integers big-endian):
//
//	offset 0   magic  4 bytes
//	offset 4   u16    version
//	offset 6   u32    CRC-32 (IEEE) of the payload
//	offset 10  u32    payload length
//	offset 14  payload
//
// Payload fields are written by Enc and read by Dec: fixed-width
// integers, f64 as IEEE-754 bits, bool as one byte, strings as u32
// length + bytes, element counts as u32.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"castanet/internal/obs"
)

const headerLen = 14

// Format names one durable file kind. Every error Load and Dec report for
// a malformed file wraps Class, so callers classify with errors.Is
// against their own sentinel.
type Format struct {
	Magic   string // exactly 4 bytes
	Version uint16
	Class   error
}

// Save writes payload atomically: temp file in the same directory, fsync,
// rename over path, fsync the directory. A crash at any point leaves
// either the previous file or the new one, never a torn file.
func (f Format) Save(path string, payload []byte) error {
	hdr := Enc{b: make([]byte, 0, headerLen+len(payload))}
	hdr.b = append(hdr.b, f.Magic...)
	hdr.U16(f.Version)
	hdr.U32(crc32.ChecksumIEEE(payload))
	hdr.U32(uint32(len(payload)))

	tmp := path + ".tmp"
	file, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := file.Write(append(hdr.b, payload...))
	if werr == nil {
		werr = file.Sync()
	}
	if cerr := file.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Load reads path and returns its validated payload. A missing file
// surfaces as os.ErrNotExist (the fresh-start fallback of both Resume
// entry points) and other I/O errors pass through unchanged; a wrong
// magic, version, length or CRC wraps Class.
func (f Format) Load(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < headerLen || string(raw[:4]) != f.Magic {
		return nil, fmt.Errorf("%w: %s is not a %s file", f.Class, path, f.Magic)
	}
	if v := binary.BigEndian.Uint16(raw[4:6]); v != f.Version {
		return nil, fmt.Errorf("%w: %s has version %d, this build reads %d", f.Class, path, v, f.Version)
	}
	crc := binary.BigEndian.Uint32(raw[6:10])
	plen := int(binary.BigEndian.Uint32(raw[10:14]))
	if plen != len(raw)-headerLen {
		return nil, fmt.Errorf("%w: %s payload length %d, file carries %d", f.Class, path, plen, len(raw)-headerLen)
	}
	payload := raw[headerLen:]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("%w: %s CRC mismatch (file %08x, payload %08x)", f.Class, path, crc, got)
	}
	return payload, nil
}

// Dec returns a decoder over payload whose errors wrap Class.
func (f Format) Dec(payload []byte) *Dec {
	return &Dec{b: payload, class: f.Class}
}

// Enc appends payload fields.
type Enc struct{ b []byte }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

func (e *Enc) U8(v uint8)    { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16)  { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Count(n int)   { e.U32(uint32(n)) }

func (e *Enc) Str(s string) {
	e.Count(len(s))
	e.b = append(e.b, s...)
}

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Cover writes coverage groups:
//
//	u32 ngroups × {str group, u32 npoints ×
//	  {str point, u32 nbins × {str bin, u64 hits}}}
func (e *Enc) Cover(gs []obs.CoverGroupSnap) {
	e.Count(len(gs))
	for _, g := range gs {
		e.Str(g.Name)
		e.Count(len(g.Points))
		for _, p := range g.Points {
			e.Str(p.Name)
			e.Count(len(p.Bins))
			for _, b := range p.Bins {
				e.Str(b.Label)
				e.U64(b.Hits)
			}
		}
	}
}

// Dec consumes a payload with a sticky error: every read is bounds-checked,
// so a truncated or crafted payload degrades to an error wrapping the
// format's Class, never a panic, and reads after the first error return
// zero values.
type Dec struct {
	b     []byte
	off   int
	err   error
	class error
}

// Err returns the first decoding error.
func (d *Dec) Err() error { return d.err }

// Finish returns the first decoding error, or a Class error when bytes
// remain after the schema's last field.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%w: %d trailing bytes", d.class, len(d.b)-d.off)
	}
	return d.err
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.err = fmt.Errorf("%w: truncated payload at offset %d", d.class, d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *Dec) U8() uint8 {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (d *Dec) U16() uint16 {
	if s := d.take(2); s != nil {
		return binary.BigEndian.Uint16(s)
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if s := d.take(4); s != nil {
		return binary.BigEndian.Uint32(s)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if s := d.take(8); s != nil {
		return binary.BigEndian.Uint64(s)
	}
	return 0
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Str() string  { return string(d.take(int(d.U32()))) }

// Bool reads one byte that must be 0 or 1, so every accepted payload
// re-encodes to its exact bytes.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("%w: bool byte %d at offset %d", d.class, v, d.off-1)
	}
	return v == 1
}

// Count reads a u32 element count. Every element occupies at least one
// payload byte, so a count above the bytes left is corrupt; rejecting it
// bounds what a crafted length can make the caller allocate by the
// payload's own size.
func (d *Dec) Count() int {
	n := d.U32()
	if d.err == nil && uint64(n) > uint64(len(d.b)-d.off) {
		d.err = fmt.Errorf("%w: count %d at offset %d exceeds the %d bytes left",
			d.class, n, d.off-4, len(d.b)-d.off)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Cover reads the groups Enc.Cover wrote; no groups decode as nil.
func (d *Dec) Cover() []obs.CoverGroupSnap {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]obs.CoverGroupSnap, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		g := obs.CoverGroupSnap{Name: d.Str()}
		np := d.Count()
		for j := 0; j < np && d.err == nil; j++ {
			p := obs.CoverPointSnap{Name: d.Str()}
			nb := d.Count()
			for k := 0; k < nb && d.err == nil; k++ {
				p.Bins = append(p.Bins, obs.CoverBin{Label: d.Str(), Hits: d.U64()})
			}
			g.Points = append(g.Points, p)
		}
		out = append(out, g)
	}
	return out
}
