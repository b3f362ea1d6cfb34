package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// resealed returns a copy of frame with its CRC recomputed, so a seed
// reaches the checks behind the checksum.
func resealed(frame []byte) []byte {
	b := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(b[10:], crc32.ChecksumIEEE(b[frameHeaderBytes:]))
	return b
}

// FuzzDecode throws arbitrary byte streams at the frame decoder. The
// decoder's contract under corruption: every failure is a typed error —
// ErrBadFrame for recognizably corrupt frames, io.EOF /
// io.ErrUnexpectedEOF for truncation — and never a panic. The layout has
// no free bits, so every accepted frame re-encodes to exactly the bytes
// it was decoded from: Encode and Decode form a bijection on the
// accepted set.
func FuzzDecode(f *testing.F) {
	// Seeds at the interesting boundaries rather than random noise: a
	// valid unit of one, a truncated header, bad magic, an oversize
	// message length, empty input, a traced unit, trailing bytes inside a
	// CRC-valid body; then a two-message unit, a unit of one sync, a
	// truncated body, a bad CRC, an oversize and a zero count, and a
	// frame nested inside a body.
	var single bytes.Buffer
	if err := Encode(&single, fixtureUnit[:1]); err != nil {
		f.Fatal(err)
	}
	valid := single.Bytes()
	f.Add(valid)
	f.Add(valid[:7])
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	f.Add(bad)
	long := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(long[frameHeaderBytes+18:], MaxData+1)
	f.Add(resealed(long))
	f.Add([]byte{})
	f.Add(tracedFrame)
	trailing := append(append([]byte(nil), valid...), 0, 0)
	binary.BigEndian.PutUint32(trailing[6:], uint32(len(trailing)-frameHeaderBytes))
	f.Add(resealed(trailing))

	f.Add(unitFrame)
	var sync bytes.Buffer
	if err := Encode(&sync, []Message{{Kind: KindSync, Time: 5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(sync.Bytes())
	f.Add(unitFrame[:frameHeaderBytes+3])
	crcBad := append([]byte(nil), unitFrame...)
	crcBad[10] ^= 0x01
	f.Add(crcBad)
	countBad := append([]byte(nil), unitFrame...)
	binary.BigEndian.PutUint32(countBad[2:], 100)
	f.Add(countBad)
	nested := append(append([]byte(nil), unitFrame[:frameHeaderBytes]...), unitFrame...)
	binary.BigEndian.PutUint32(nested[6:], uint32(len(unitFrame)))
	f.Add(resealed(nested))
	countZero := append([]byte(nil), unitFrame...)
	binary.BigEndian.PutUint32(countZero[2:], 0)
	f.Add(countZero)

	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("Decode returned untyped error %v (%T)", err, err)
			}
			return
		}
		if len(u) == 0 {
			t.Fatal("Decode accepted an empty unit")
		}
		var buf bytes.Buffer
		if err := Encode(&buf, u); err != nil {
			t.Fatalf("re-encode of decoded unit failed: %v", err)
		}
		if n := buf.Len(); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("re-encoding differs from the accepted frame:\n got %x\nfrom %x", buf.Bytes(), data)
		}
		u2, err := decodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("in-memory decode of the re-encoded frame failed: %v", err)
		}
		for i := range u {
			if !sameMessage(u2[i], u[i]) {
				t.Fatalf("round trip changed message %d: %v -> %v", i, u[i], u2[i])
			}
		}
	})
}

// FuzzOpenEnvelope drives the reliability envelope's unwrap path with
// arbitrary KindRelData payloads. Corruption must always surface as
// ErrBadFrame (the receive loop drops such frames and lets retransmission
// recover); an accepted envelope must re-envelope to the identical unit
// under the same sequence number.
func FuzzOpenEnvelope(f *testing.F) {
	env, err := envelope(7, []Message{{Kind: KindUser, Time: 99, Data: []byte{0xAB, 0xCD}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env.Data)
	f.Add(env.Data[:6])
	crcBad := append([]byte(nil), env.Data...)
	crcBad[4] ^= 0x01
	f.Add(crcBad)
	// CRC-valid envelope around a truncated inner frame: recompute the
	// checksum over a cut-down body so only the inner decode can object.
	cut := append([]byte(nil), env.Data[:12]...)
	binary.BigEndian.PutUint32(cut[4:], crc32.ChecksumIEEE(cut[8:]))
	f.Add(cut)
	// A traced inner frame: the envelope must carry the trace ID through.
	tracedEnv, err := envelope(8, []Message{{Kind: KindUser, Time: 100, Trace: 0x2a, Data: []byte{0x01}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedEnv.Data)

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, inner, err := openEnvelope(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("openEnvelope returned untyped error %v (%T)", err, err)
			}
			return
		}
		again, err := envelope(seq, inner)
		if err != nil {
			t.Fatalf("re-envelope failed: %v", err)
		}
		seq2, inner2, err := openEnvelope(again.Data)
		if err != nil {
			t.Fatalf("unwrap of re-enveloped frame failed: %v", err)
		}
		if seq2 != seq || len(inner2) != len(inner) {
			t.Fatalf("envelope round trip changed the frame: seq %d->%d, %v -> %v", seq, seq2, inner, inner2)
		}
		for i := range inner {
			if !sameMessage(inner2[i], inner[i]) {
				t.Fatalf("envelope round trip changed message %d: %v -> %v", i, inner[i], inner2[i])
			}
		}
	})
}
