// Package ipc carries the time-stamped messages exchanged between the
// network simulator and the HDL simulator / hardware test board. The
// paper's CASTANET library uses standard UNIX inter-process communication;
// here the same message format travels either through an in-process pipe
// (both engines in one Go process) or over a real stream socket, proving
// the coupling is genuinely process-separable.
//
// Every message carries the current simulation time of its originator —
// the basis of the conservative synchronization protocol in package cosim.
// Messages travel in units: the conservative protocol proves a whole
// δ-window safe to deliver, so one frame carries the window, and a single
// message is a unit of one.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"castanet/internal/sim"
)

// Kind identifies a message type. Each kind maps to one input queue I_j of
// the co-simulation entity with its own processing delay δ_j.
type Kind uint16

// Reserved kinds. User data kinds start at KindUser.
const (
	// KindSync is a pure time-update (null) message: it advances the
	// receiver's view of the sender's clock without carrying data, letting
	// the conservative protocol make progress through idle phases.
	KindSync Kind = 0
	// KindInit carries the initialization blob sent before time zero
	// (Fig. 2: "initialization of VHDL simulator and Hardware Test Board").
	KindInit Kind = 1
	// KindUser is the first application message kind.
	KindUser Kind = 8
)

// Message is one time-stamped unit of simulator coupling traffic.
type Message struct {
	Kind Kind
	Time sim.Time // originator's simulation time
	Data []byte
	// Trace is the causal cell-trace ID riding with the message (see
	// internal/obs celltrace); 0 means untraced.
	Trace uint64
}

// String formats the message for logs.
func (m Message) String() string {
	if m.Trace != 0 {
		return fmt.Sprintf("msg{kind=%d t=%v len=%d trace=0x%x}", m.Kind, m.Time, len(m.Data), m.Trace)
	}
	return fmt.Sprintf("msg{kind=%d t=%v len=%d}", m.Kind, m.Time, len(m.Data))
}

// Wire format, big endian. Every unit travels as one frame:
//
//	magic(2) count(4) bodyLen(4) crc32(4) body(bodyLen)
//
// body is the unit's count messages back to back, each
//
//	kind(2) time(8) trace(8) len(4) data(len)
//
// protected as a whole by one CRC-32 (IEEE). Trace 0 means untraced.
const (
	magic            = 0xCA5A
	frameHeaderBytes = 2 + 4 + 4 + 4
	msgHeaderBytes   = 2 + 8 + 8 + 4
	// MaxData bounds message payloads; a full ATM cell is 53 bytes, an
	// initialization blob a few KiB. The limit guards the decoder against
	// corrupt length fields.
	MaxData = 1 << 20
	// MaxFrameBytes bounds a frame body the same way.
	MaxFrameBytes = 1 << 24
)

// ErrBadFrame reports a corrupted or foreign byte stream.
var ErrBadFrame = errors.New("ipc: bad frame")

// errEmptyUnit rejects a unit with no messages: the caller's flush logic,
// not the wire, decides that there is nothing to say.
var errEmptyUnit = errors.New("ipc: empty unit")

// encBuf is a pooled encode buffer. The pool holds *encBuf (not []byte)
// so Get/Put never allocate for the interface conversion, keeping the
// steady-state encode path at zero allocations per call.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() interface{} { return new(encBuf) }}

// frameBytes returns the encoded size of msgs as one frame.
func frameBytes(msgs []Message) int {
	n := frameHeaderBytes
	for _, m := range msgs {
		n += msgHeaderBytes + len(m.Data)
	}
	return n
}

// appendFrame appends msgs to dst as one frame.
func appendFrame(dst []byte, msgs []Message) ([]byte, error) {
	if len(msgs) == 0 {
		return dst, errEmptyUnit
	}
	start := len(dst)
	var hdr [frameHeaderBytes]byte
	dst = append(dst, hdr[:]...)
	for _, m := range msgs {
		if len(m.Data) > MaxData {
			return dst[:start], fmt.Errorf("ipc: payload %d exceeds limit", len(m.Data))
		}
		var mh [msgHeaderBytes]byte
		binary.BigEndian.PutUint16(mh[0:], uint16(m.Kind))
		binary.BigEndian.PutUint64(mh[2:], uint64(m.Time))
		binary.BigEndian.PutUint64(mh[10:], m.Trace)
		binary.BigEndian.PutUint32(mh[18:], uint32(len(m.Data)))
		dst = append(append(dst, mh[:]...), m.Data...)
	}
	body := dst[start+frameHeaderBytes:]
	if len(body) > MaxFrameBytes {
		return dst[:start], fmt.Errorf("ipc: frame body %d exceeds limit", len(body))
	}
	h := dst[start:]
	binary.BigEndian.PutUint16(h[0:], magic)
	binary.BigEndian.PutUint32(h[2:], uint32(len(msgs)))
	binary.BigEndian.PutUint32(h[6:], uint32(len(body)))
	binary.BigEndian.PutUint32(h[10:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// Encode writes msgs to w as one frame in a single Write. The encode
// buffer comes from a pool, so the steady-state path performs no
// allocations; msgs is not retained.
func Encode(w io.Writer, msgs []Message) error {
	eb := encPool.Get().(*encBuf)
	buf, err := appendFrame(eb.b[:0], msgs)
	if err == nil {
		_, err = w.Write(buf)
	}
	eb.b = buf[:0]
	encPool.Put(eb)
	return err
}

// frameHeader validates a frame header and returns its count, body
// length and checksum.
func frameHeader(h []byte) (count, bodyLen, sum uint32, err error) {
	if binary.BigEndian.Uint16(h[0:]) != magic {
		return 0, 0, 0, ErrBadFrame
	}
	count = binary.BigEndian.Uint32(h[2:])
	bodyLen = binary.BigEndian.Uint32(h[6:])
	if bodyLen > MaxFrameBytes {
		return 0, 0, 0, fmt.Errorf("%w: body length %d", ErrBadFrame, bodyLen)
	}
	// Every message is at least a bare header, which bounds the count a
	// body of this size can hold.
	if count == 0 || uint64(count)*msgHeaderBytes > uint64(bodyLen) {
		return 0, 0, 0, fmt.Errorf("%w: count %d for body %d", ErrBadFrame, count, bodyLen)
	}
	return count, bodyLen, binary.BigEndian.Uint32(h[10:]), nil
}

// parseBody verifies the CRC of a frame body and splits it into its
// messages. Payloads alias body, so the caller hands body over. Every
// inconsistency inside a CRC-valid body — truncated message, oversize
// length, trailing bytes — is corruption and reports ErrBadFrame.
func parseBody(body []byte, count, sum uint32) ([]Message, error) {
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	}
	msgs := make([]Message, count)
	for i := range msgs {
		if len(body) < msgHeaderBytes {
			return nil, fmt.Errorf("%w: message %d truncated", ErrBadFrame, i)
		}
		n := binary.BigEndian.Uint32(body[18:])
		if n > MaxData || uint64(n) > uint64(len(body)-msgHeaderBytes) {
			return nil, fmt.Errorf("%w: message %d length %d", ErrBadFrame, i, n)
		}
		msgs[i] = Message{
			Kind:  Kind(binary.BigEndian.Uint16(body[0:])),
			Time:  sim.Time(binary.BigEndian.Uint64(body[2:])),
			Trace: binary.BigEndian.Uint64(body[10:]),
		}
		end := msgHeaderBytes + int(n)
		if n > 0 {
			msgs[i].Data = body[msgHeaderBytes:end:end]
		}
		body = body[end:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(body))
	}
	return msgs, nil
}

// Decode reads one frame from r and returns its unit, verifying the CRC
// before any message is parsed. Truncation reports io.EOF or
// io.ErrUnexpectedEOF, corruption ErrBadFrame.
func Decode(r io.Reader) ([]Message, error) {
	var h [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, err
	}
	count, bodyLen, sum, err := frameHeader(h[:])
	if err != nil {
		return nil, err
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return parseBody(body, count, sum)
}

// decodeBytes decodes b as exactly one frame; payloads alias b.
func decodeBytes(b []byte) ([]Message, error) {
	if len(b) < frameHeaderBytes {
		return nil, fmt.Errorf("%w: short frame", ErrBadFrame)
	}
	count, bodyLen, sum, err := frameHeader(b)
	if err != nil {
		return nil, err
	}
	if body := b[frameHeaderBytes:]; uint64(len(body)) != uint64(bodyLen) {
		return nil, fmt.Errorf("%w: body %d bytes, header says %d", ErrBadFrame, len(body), bodyLen)
	}
	return parseBody(b[frameHeaderBytes:], count, sum)
}
