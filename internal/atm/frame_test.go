package atm

import "testing"

// FuzzCellStream drives the Fig.-4 framing with random port streams.
// data is read as (octet, flags) pairs, one per clock: flags bit 0 is the
// sync strobe and bit 1 marks the octet undefined (Abort). The Deframer
// must never panic, must complete a cell exactly at the 53rd clock after a
// sync with no later sync and no undefined octet in between, returning
// those 53 octets, and must report from Abort exactly the cells an
// undefined octet cuts short. data is also cut into cell images that a
// Framer sends to a Deframer with the idle gaps of gaps (one per cell, 0:
// back to back); every image must come back, in order.
func FuzzCellStream(f *testing.F) {
	idle := IdleCell().Marshal()
	f.Add(append([]byte{0x10, 1}, make([]byte, 2*(CellBytes-1))...), []byte{})
	f.Add(append(append([]byte{0xAA, 1}, make([]byte, 40)...), make([]byte, 2*CellBytes)...), []byte{0, 3})
	f.Add(append([]byte{0x33, 1, 0x44, 2}, idle[:]...), []byte{0, 0, 0})
	f.Add(append(idle[:], idle[:]...), []byte{5, 0})
	f.Fuzz(func(t *testing.T, data, gaps []byte) {
		checkDeframe(t, data)
		checkRoundTrip(t, data, gaps)
	})
}

// checkDeframe feeds data's (octet, flags) pairs to a Deframer and checks
// each clock's outcome against the stream itself.
func checkDeframe(t *testing.T, data []byte) {
	var d Deframer
	n := len(data) / 2
	octet := func(i int) byte { return data[2*i] }
	sync := func(i int) bool { return data[2*i+1]&1 != 0 }
	undef := func(i int) bool { return data[2*i+1]&2 != 0 }
	for i := 0; i < n; i++ {
		var img *[CellBytes]byte
		var done bool
		if undef(i) {
			// An undefined octet abandons the cell this clock's sync
			// opens, or one opened by the last sync fewer than 53 clocks
			// ago with every octet since defined.
			abandoned := d.Abort(sync(i)) != nil
			want := sync(i)
			s := i - 1
			for s >= 0 && !sync(s) {
				s--
			}
			if !want && s >= 0 && i-s < CellBytes {
				want = true
				for j := s; j < i; j++ {
					want = want && !undef(j)
				}
			}
			if abandoned != want {
				t.Fatalf("clock %d: Abort abandoned=%v, want %v", i, abandoned, want)
			}
		} else {
			img = d.Push(octet(i), sync(i))
			done = img != nil
		}
		// A cell completes here iff a sync opened it 52 clocks ago and no
		// sync or undefined octet came since.
		s := i - (CellBytes - 1)
		want := s >= 0 && sync(s)
		for j := s + 1; want && j <= i; j++ {
			want = !sync(j)
		}
		for j := s; want && j <= i; j++ {
			want = !undef(j)
		}
		if done != want {
			t.Fatalf("clock %d: done=%v, want %v", i, done, want)
		}
		for j := 0; done && j < CellBytes; j++ {
			if img[j] != octet(s+j) {
				t.Fatalf("clock %d: octet %d = %#x, want %#x", i, j, img[j], octet(s+j))
			}
		}
	}
}

// checkRoundTrip frames data's cell images with gaps' idle clocks before
// each and checks the Deframer returns them all, in order.
func checkRoundTrip(t *testing.T, data, gaps []byte) {
	var imgs [][CellBytes]byte
	for off := 0; off < len(data); off += CellBytes {
		var img [CellBytes]byte
		copy(img[:], data[off:])
		imgs = append(imgs, img)
	}
	var f Framer
	var d Deframer
	var got [][CellBytes]byte
	clock := func() {
		o, s := f.Next()
		if img := d.Push(o, s); img != nil {
			got = append(got, *img)
		}
	}
	for k, img := range imgs {
		if k < len(gaps) {
			for g := 0; g < int(gaps[k]); g++ {
				clock()
			}
		}
		f.Load(img)
		for f.Busy() {
			clock()
		}
	}
	clock() // an idle clock after the last cell completes nothing
	if len(got) != len(imgs) {
		t.Fatalf("%d cells framed, %d deframed", len(imgs), len(got))
	}
	for k := range imgs {
		if got[k] != imgs[k] {
			t.Fatalf("cell %d: deframed %x, want %x", k, got[k], imgs[k])
		}
	}
}
