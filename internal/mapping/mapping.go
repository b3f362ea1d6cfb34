// Package mapping implements the abstraction interfaces of the
// co-verification environment (§3.2 of the paper): the conversion between
// the instantaneous, structured information flows of the network simulator
// (C-struct-like packets) and the bit-level, clock-accurate signal streams
// of the hardware. Its centerpiece is the Fig.-4 mapping of an ATM cell to
// an 8-bit VHDL data port: 53 octets over 53 clock cycles plus a generated
// cell-synchronization control signal marking the first octet.
//
// The package also hosts the conversion-function registry of the CASTANET
// library: per-message-kind codecs between abstract Go values and the byte
// payloads of ipc messages.
package mapping

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/ipc"
)

// Codec converts one abstract data type to and from ipc message payloads.
type Codec interface {
	Encode(v interface{}) ([]byte, error)
	Decode(data []byte) (interface{}, error)
}

// Registry maps message kinds to conversion functions, the "library of
// generic protocol classes and conversion routines" the paper's outlook
// describes. Users register a codec per message kind.
type Registry struct {
	codecs map[ipc.Kind]Codec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{codecs: make(map[ipc.Kind]Codec)} }

// Register binds a codec to a kind; re-registering a kind panics, because
// silently replacing a conversion function corrupts a running coupling.
func (r *Registry) Register(k ipc.Kind, c Codec) {
	if _, dup := r.codecs[k]; dup {
		panic(fmt.Sprintf("mapping: kind %d registered twice", k))
	}
	r.codecs[k] = c
}

// Lookup returns the codec for a kind.
func (r *Registry) Lookup(k ipc.Kind) (Codec, bool) {
	c, ok := r.codecs[k]
	return c, ok
}

// Encode builds a complete message for kind k from an abstract value.
func (r *Registry) Encode(k ipc.Kind, v interface{}) ([]byte, error) {
	c, ok := r.codecs[k]
	if !ok {
		return nil, fmt.Errorf("mapping: no codec for kind %d", k)
	}
	return c.Encode(v)
}

// Decode parses a message payload for kind k into an abstract value.
func (r *Registry) Decode(k ipc.Kind, data []byte) (interface{}, error) {
	c, ok := r.codecs[k]
	if !ok {
		return nil, fmt.Errorf("mapping: no codec for kind %d", k)
	}
	return c.Decode(data)
}

// CellCodec converts *atm.Cell values to their 53-octet wire image. It is
// the standard codec for ATM cell streams.
type CellCodec struct{}

// Encode implements Codec for *atm.Cell. The payload travels exactly as
// given: test benches that match cells by sequence number stamp it into
// the payload themselves (Cell.StampSeq) before sending, while
// adaptation-layer traffic (AAL5) must cross untouched.
func (CellCodec) Encode(v interface{}) ([]byte, error) {
	c, ok := v.(*atm.Cell)
	if !ok {
		return nil, fmt.Errorf("mapping: CellCodec got %T, want *atm.Cell", v)
	}
	img := c.Marshal()
	return img[:], nil
}

// Decode implements Codec, verifying the HEC.
func (CellCodec) Decode(data []byte) (interface{}, error) {
	img, err := atm.ParseImage(data)
	if err != nil {
		return nil, err
	}
	return atm.Unmarshal(img)
}

// BytesCodec passes raw byte payloads through unchanged, for test vectors
// that are already bit-level.
type BytesCodec struct{}

// Encode implements Codec for []byte.
func (BytesCodec) Encode(v interface{}) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("mapping: BytesCodec got %T, want []byte", v)
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Decode implements Codec.
func (BytesCodec) Decode(data []byte) (interface{}, error) {
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}
