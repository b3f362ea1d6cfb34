package ipc

import (
	"bytes"
	"errors"
	"testing"

	"castanet/internal/sim"
)

// The frame layout is pinned bit-exactly by captured fixtures, so a change
// to it cannot slip through as a round trip that merely agrees with itself.

// untracedMsg and tracedMsg are the two fixture messages.
var (
	untracedMsg = []byte{
		0x00, 0x08, // kind 8 (KindUser)
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x30, 0x39, // time 12345
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // trace 0: untraced
		0x00, 0x00, 0x00, 0x04, // len
		'c', 'e', 'l', 'l',
	}
	tracedMsg = []byte{
		0x00, 0x08, // kind 8 (KindUser)
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x09, // time 777
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2A, // trace 0x2A
		0x00, 0x00, 0x00, 0x02, // len
		0xDE, 0xAD,
	}
)

// tracedFrame is a captured unit of one: the traced fixture message.
var tracedFrame = append([]byte{
	0xCA, 0x5A, // magic
	0x00, 0x00, 0x00, 0x01, // count
	0x00, 0x00, 0x00, 0x18, // body length 24
	0x23, 0x57, 0xAF, 0xE3, // crc32 (IEEE) of body
}, tracedMsg...)

// unitFrame is a captured unit of both fixture messages: count 2, a
// 50-byte body under one CRC-32.
var unitFrame = append(append([]byte{
	0xCA, 0x5A, // magic
	0x00, 0x00, 0x00, 0x02, // count
	0x00, 0x00, 0x00, 0x32, // body length 50
	0xD6, 0x20, 0xE7, 0xC0, // crc32 (IEEE) of body
}, untracedMsg...), tracedMsg...)

// fixtureUnit is what unitFrame decodes to.
var fixtureUnit = []Message{
	{Kind: KindUser, Time: 12345, Data: []byte("cell")},
	{Kind: KindUser, Time: 777, Trace: 0x2A, Data: []byte{0xDE, 0xAD}},
}

// legacyFrame is a frame of the retired one-message-per-frame wire
// format: magic 0xCA57, kind 8, time 12345, payload "cell".
var legacyFrame = []byte{
	0xCA, 0x57, // magic
	0x00, 0x08, // kind
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x30, 0x39, // time
	0x00, 0x00, 0x00, 0x04, // len
	'c', 'e', 'l', 'l',
}

// TestDecodeLegacyFrame: a frame of the retired one-message layout is a
// foreign stream, rejected as ErrBadFrame instead of misparsed.
func TestDecodeLegacyFrame(t *testing.T) {
	if u, err := Decode(bytes.NewReader(legacyFrame)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("legacy frame decoded to %v, %v; want ErrBadFrame", u, err)
	}
}

// TestTracedRoundTrip: a traced message survives Encode→Decode with its
// trace ID, and an untraced one comes back with trace 0.
func TestTracedRoundTrip(t *testing.T) {
	in := []Message{
		{Kind: KindUser, Time: 777, Trace: 0x2a, Data: []byte{0xDE, 0xAD}},
		{Kind: KindSync, Time: 778},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != frameHeaderBytes+2*msgHeaderBytes+len(in[0].Data) {
		t.Errorf("frame is %d bytes, want %d", buf.Len(), frameHeaderBytes+2*msgHeaderBytes+len(in[0].Data))
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if !sameMessage(out[i], in[i]) {
			t.Errorf("round trip changed message %d: %v -> %v", i, in[i], out[i])
		}
	}
}

// TestDecodeTracedFixture: a hard-coded traced unit of one decodes
// unchanged.
func TestDecodeTracedFixture(t *testing.T) {
	u, err := Decode(bytes.NewReader(tracedFrame))
	if err != nil {
		t.Fatalf("traced fixture rejected: %v", err)
	}
	if len(u) != 1 || !sameMessage(u[0], fixtureUnit[1]) {
		t.Errorf("traced fixture decoded wrong: %v", u)
	}
}

// TestDecodeBatchFixture: a hard-coded unit carrying an untraced and a
// traced message decodes into both messages in order.
func TestDecodeBatchFixture(t *testing.T) {
	u, err := Decode(bytes.NewReader(unitFrame))
	if err != nil {
		t.Fatalf("unit fixture rejected: %v", err)
	}
	if len(u) != 2 {
		t.Fatalf("unit fixture decoded to %d messages, want 2", len(u))
	}
	for i := range u {
		if !sameMessage(u[i], fixtureUnit[i]) {
			t.Errorf("message %d decoded wrong: %v", i, u[i])
		}
	}
}

// TestEncodeBatchMatchesFixture pins the frame layout bit-exactly:
// encoding the fixture messages must reproduce the captured frames.
func TestEncodeBatchMatchesFixture(t *testing.T) {
	for name, c := range map[string]struct {
		u    []Message
		want []byte
	}{"unit": {fixtureUnit, unitFrame}, "traced": {fixtureUnit[1:], tracedFrame}} {
		var buf bytes.Buffer
		if err := Encode(&buf, c.u); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), c.want) {
			t.Errorf("%s encoding diverged from the captured layout:\n got %x\nwant %x", name, buf.Bytes(), c.want)
		}
	}
}

// TestEnvelopeCarriesTrace: the reliability envelope carries the unit's
// frame, so the trace ID crosses a faulty link inside the checksummed
// body and comes back out of openEnvelope intact.
func TestEnvelopeCarriesTrace(t *testing.T) {
	in := []Message{{Kind: KindUser, Time: 42, Trace: 9, Data: []byte("x")}, {Kind: KindSync, Time: 43}}
	env, err := envelope(3, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Data) != cap(env.Data) || env.Time != sim.Time(43) {
		t.Errorf("envelope len %d cap %d time %v: want an exactly sized buffer stamped with the last message",
			len(env.Data), cap(env.Data), env.Time)
	}
	seq, out, err := openEnvelope(env.Data)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || len(out) != 2 || !sameMessage(out[0], in[0]) || !sameMessage(out[1], in[1]) {
		t.Errorf("envelope round trip: seq=%d unit=%v", seq, out)
	}
}
