package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"castanet/internal/sim"
)

// one wraps m as a unit of one.
func one(m Message) []Message { return []Message{m} }

// recvOne receives a unit and requires it to hold exactly one message.
func recvOne(t *testing.T, tr Transport) (Message, error) {
	t.Helper()
	u, err := tr.Recv()
	if err != nil {
		return Message{}, err
	}
	if len(u) != 1 {
		t.Fatalf("unit of %d messages, want 1", len(u))
	}
	return u[0], nil
}

// sameMessage reports whether two messages agree on every field.
func sameMessage(a, b Message) bool {
	return a.Kind == b.Kind && a.Time == b.Time && a.Trace == b.Trace && bytes.Equal(a.Data, b.Data)
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(kinds []uint16, tm int64, trace uint64, data []byte) bool {
		if tm < 0 {
			tm = -tm
		}
		u := []Message{{Kind: KindUser, Time: sim.Time(tm), Trace: trace, Data: data}}
		for i, k := range kinds {
			u = append(u, Message{Kind: Kind(k), Time: sim.Time(tm + int64(i)), Data: data[:len(data)*i/(len(kinds)+1)]})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, u); err != nil {
			return false
		}
		if buf.Len() != frameBytes(u) {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got) != len(u) || buf.Len() != 0 {
			return false
		}
		for i := range u {
			if !sameMessage(got[i], u[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		err := Encode(&buf, one(Message{Kind: Kind(i), Time: sim.Time(i) * sim.Microsecond, Data: []byte{byte(i)}}))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		u, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(u) != 1 || u[0].Kind != Kind(i) || u[0].Data[0] != byte(i) {
			t.Fatalf("unit %d corrupted: %v", i, u)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("garbage magic: err = %v, want ErrBadFrame", err)
	}
	if err := Encode(io.Discard, nil); err == nil {
		t.Error("empty unit encoded")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, one(Message{})); err != nil {
		t.Fatal(err)
	}
	// Absurd body length field.
	b := append([]byte(nil), buf.Bytes()...)
	b[6], b[7], b[8], b[9] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized body: err = %v, want ErrBadFrame", err)
	}
	// Absurd message length field, CRC kept valid.
	b = append([]byte(nil), buf.Bytes()...)
	b[frameHeaderBytes+18], b[frameHeaderBytes+19] = 0xFF, 0xFF
	binary.BigEndian.PutUint32(b[10:], crc32.ChecksumIEEE(b[frameHeaderBytes:]))
	if _, err := Decode(bytes.NewReader(b)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized message: err = %v, want ErrBadFrame", err)
	}
}

func TestPipeTransport(t *testing.T) {
	a, b := Pipe(4)
	want := Message{Kind: KindUser, Time: sim.Microsecond, Data: []byte("cell")}
	if err := a.Send(one(want)); err != nil {
		t.Fatal(err)
	}
	got, err := recvOne(t, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || string(got.Data) != "cell" {
		t.Fatalf("got %v", got)
	}
	// Reverse direction.
	if err := b.Send(one(Message{Kind: KindSync, Time: 2 * sim.Microsecond})); err != nil {
		t.Fatal(err)
	}
	if m, err := recvOne(t, a); err != nil || m.Kind != KindSync {
		t.Fatalf("reverse recv = %v, %v", m, err)
	}
	a.Close()
	if err := a.Send(one(want)); err == nil {
		t.Error("send after close succeeded")
	}
	if _, err := b.Recv(); err == nil {
		t.Error("recv after close succeeded with empty queue")
	}
}

func TestPipeDrainsAfterClose(t *testing.T) {
	a, b := Pipe(4)
	a.Send(one(Message{Kind: 5}))
	a.Close()
	if m, err := recvOne(t, b); err != nil || m.Kind != 5 {
		t.Fatalf("queued message lost on close: %v %v", m, err)
	}
}

func TestSocketTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan Message, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		tr := NewConn(c)
		u, err := tr.Recv()
		if err != nil {
			return
		}
		// Echo back with bumped time.
		u[0].Time += sim.Microsecond
		tr.Send(u)
		done <- u[0]
	}()
	tr, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	want := Message{Kind: KindUser + 1, Time: 5 * sim.Microsecond, Data: bytes.Repeat([]byte{0xAA}, 53)}
	if err := tr.Send(one(want)); err != nil {
		t.Fatal(err)
	}
	got, err := recvOne(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != want.Time+sim.Microsecond || len(got.Data) != 53 {
		t.Fatalf("echo = %v", got)
	}
	<-done
}

func TestUnixSocketTransport(t *testing.T) {
	dir := t.TempDir()
	sock := dir + "/coupling.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Skipf("unix sockets unavailable: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		tr := NewConn(c)
		for {
			u, err := tr.Recv()
			if err != nil {
				return
			}
			tr.Send(u) // echo
		}
	}()
	tr, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 10; i++ {
		want := Message{Kind: Kind(i), Time: sim.Time(i) * sim.Microsecond, Data: []byte{byte(i)}}
		if err := tr.Send(one(want)); err != nil {
			t.Fatal(err)
		}
		got, err := recvOne(t, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Time != want.Time {
			t.Fatalf("echo %d corrupted: %v", i, got)
		}
	}
}

// TestPipeCloseSemantics pins the close/drain contract of the in-process
// transport: queued messages survive Close, Close is idempotent from
// either end, and post-drain operations report ErrClosed.
func TestPipeCloseSemantics(t *testing.T) {
	tests := []struct {
		name string
		run  func(t *testing.T, a, b Transport)
	}{
		{"post-close drain yields queued then ErrClosed", func(t *testing.T, a, b Transport) {
			a.Send(one(Message{Kind: 1}))
			a.Send(one(Message{Kind: 2}))
			a.Close()
			for want := Kind(1); want <= 2; want++ {
				m, err := recvOne(t, b)
				if err != nil || m.Kind != want {
					t.Fatalf("drain %d = %v, %v", want, m, err)
				}
			}
			if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("post-drain recv err = %v", err)
			}
		}},
		{"double close both ends", func(t *testing.T, a, b Transport) {
			for i := 0; i < 2; i++ {
				if err := a.Close(); err != nil {
					t.Fatalf("a.Close #%d: %v", i, err)
				}
				if err := b.Close(); err != nil {
					t.Fatalf("b.Close #%d: %v", i, err)
				}
			}
		}},
		{"send after peer close", func(t *testing.T, a, b Transport) {
			b.Close()
			if err := a.Send(one(Message{Kind: 1})); !errors.Is(err, ErrClosed) {
				t.Fatalf("send err = %v", err)
			}
		}},
		{"recv after close with empty queue", func(t *testing.T, a, b Transport) {
			a.Close()
			if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
				t.Fatalf("recv err = %v", err)
			}
		}},
		{"concurrent send and close", func(t *testing.T, a, b Transport) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						if err := a.Send(one(Message{Kind: 1})); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("send err = %v", err)
							}
							return
						}
					}
				}()
			}
			a.Close()
			wg.Wait()
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe(256)
			defer a.Close()
			defer b.Close()
			tc.run(t, a, b)
		})
	}
}

// TestConnCloseIdempotentUnderConcurrentSend pins the socket-transport
// contract: Close is idempotent, and a Send racing Close reports
// ErrClosed rather than an unwrapped net error.
func TestConnCloseIdempotentUnderConcurrentSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		tr := NewConn(c)
		for {
			if _, err := tr.Recv(); err != nil {
				return
			}
		}
	}()
	tr, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10000; i++ {
			if err := tr.Send(one(Message{Kind: KindUser, Data: []byte{1, 2, 3}})); err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("racing send returned %v, want ErrClosed", err)
				}
				return
			}
		}
	}()
	if err := tr.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	wg.Wait()
	if err := tr.Send(one(Message{Kind: KindUser})); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if _, err := tr.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close = %v, want ErrClosed", err)
	}
}
