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

// inboundStream encodes units back to back, the byte stream
// FuzzReliableInbound splits into the units its far end sends.
func inboundStream(f *testing.F, units ...[]Message) []byte {
	var buf bytes.Buffer
	for _, u := range units {
		if err := Encode(&buf, u); err != nil {
			f.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReliableInbound feeds arbitrary units to the envelope's inbound
// dispatch: the input is split into frames and each decoded frame arrives
// from the far end as one unit. Only the payloads of valid envelopes in sequence
// (1, 2, 3 …) may reach Recv, in order; raw units, multi-message units,
// corrupt, duplicate or out-of-sequence envelopes, acks and the reserved
// heartbeat kind are all dropped.
func FuzzReliableInbound(f *testing.F) {
	env := func(seq uint32, msgs ...Message) []Message {
		m, err := envelope(seq, msgs)
		if err != nil {
			f.Fatal(err)
		}
		return []Message{m}
	}
	e1, e2 := env(1, fixtureUnit[0]), env(2, fixtureUnit...)
	bent := append([]byte(nil), e1[0].Data...)
	bent[len(bent)-1] ^= 0x01
	ack := []Message{{Kind: KindRelAck, Data: []byte{0, 0, 0, 1, 0, 0, 0, 0}}}
	f.Add(inboundStream(f, e1, e2))
	f.Add(inboundStream(f, one(fixtureUnit[0]), fixtureUnit, e1))
	f.Add(inboundStream(f, e2, e1, e1, e2))
	f.Add(inboundStream(f, []Message{{Kind: KindRelData, Data: bent}}, ack, []Message{{Kind: KindRelHeartbeat}}, e1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var units [][]Message
		for br := bytes.NewReader(data); ; {
			u, err := Decode(br)
			if err != nil {
				break
			}
			units = append(units, u)
		}
		var want []Message
		var last uint32
		for _, u := range units {
			if len(u) != 1 || u[0].Kind != KindRelData {
				continue
			}
			if seq, inner, err := openEnvelope(u[0].Data); err == nil && seq == last+1 {
				want = append(want, inner...)
				last = seq
			}
		}

		// The pipe holds every unit and every ack, so nothing blocks
		// before the far end closes and Recv drains the pipe.
		a, b := Pipe(len(units) + 1)
		r := NewReliable(a, ReliableConfig{})
		defer r.Close()
		for _, u := range units {
			if err := b.Send(u); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		var got []Message
		for {
			u, err := r.Recv()
			if err != nil {
				break
			}
			got = append(got, u...)
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d messages, want %d in-sequence envelope payloads", len(got), len(want))
		}
		for i := range want {
			if !sameMessage(got[i], want[i]) {
				t.Fatalf("delivery %d = %v, want %v", i, got[i], want[i])
			}
		}
		if st := r.Stats(); st.Delivered != uint64(len(want)) {
			t.Errorf("Delivered = %d, want %d", st.Delivered, len(want))
		}
	})
}
