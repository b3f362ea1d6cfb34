package atm

// The Fig.-4 signal conditioning maps a cell onto an 8-bit data port and a
// generated cell-sync strobe: the 53 octets of the image travel one per
// clock, with sync high on the first. A new sync starts a new cell and
// discards any partial one. Framer and Deframer are that rule, written
// once for every port that carries cells: the HDL reader and writer, the
// cycle-based twins and the test board's stream harness.

// Framer serializes cell images onto a Fig.-4 port, one octet per clock.
// The zero value is idle.
type Framer struct {
	img  [CellBytes]byte
	left int // octets of img still to send
}

// Load starts the next cell. The framer must be idle: loading over a cell
// in flight truncates it.
func (f *Framer) Load(img [CellBytes]byte) {
	f.img, f.left = img, CellBytes
}

// Busy reports whether a cell is in flight.
func (f *Framer) Busy() bool { return f.left > 0 }

// Next returns this clock's octet and sync. An idle framer yields the
// gated line between cells: zero with sync low.
func (f *Framer) Next() (octet byte, sync bool) {
	if f.left == 0 {
		return 0, false
	}
	i := CellBytes - f.left
	f.left--
	return f.img[i], i == 0
}

// Deframer reassembles cell images from a Fig.-4 port, one clock at a
// time. The zero value waits for a sync.
type Deframer struct {
	buf  [CellBytes]byte
	pos  int // octets of the cell in progress
	busy bool
}

// Busy reports whether a cell is in progress.
func (d *Deframer) Busy() bool { return d.busy }

// Push takes one clock's octet and sync. A sync starts a new cell,
// discarding any partial one; outside a cell an octet without sync is the
// gated line and ignored. On the 53rd octet of a cell Push returns its
// image, otherwise nil. The image is the deframer's own buffer: it holds
// until the next Push or Abort, so a caller that keeps it copies it.
func (d *Deframer) Push(octet byte, sync bool) *[CellBytes]byte {
	if sync {
		d.pos, d.busy = 0, true
	} else if !d.busy {
		return nil
	}
	d.buf[d.pos] = octet
	d.pos++
	if d.pos < CellBytes {
		return nil
	}
	d.busy = false
	return &d.buf
}

// Abort takes a clock whose octet is undefined: the cell in progress, or
// the one this clock's sync starts, is abandoned. It returns that cell's
// buffer for diagnosis (the octets received so far, the tail left from an
// earlier cell), or nil when no cell was abandoned.
func (d *Deframer) Abort(sync bool) *[CellBytes]byte {
	abandoned := sync || d.busy
	d.busy = false
	if !abandoned {
		return nil
	}
	return &d.buf
}
