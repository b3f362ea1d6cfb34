package ipc

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
)

// Transport moves units of messages between the coupled simulators. Send
// ships msgs as one unit and does not retain the slice, so the caller may
// reuse it at once; it must not block indefinitely when the peer is
// draining. Recv blocks until the next unit arrives, whole and in order,
// or the transport closes; the returned slice belongs to the caller.
//
// "Draining" means the peer's owner is inside Send or Recv: a transport
// may do its protocol work only there (ReliableTransport acknowledges
// inside those calls and runs no goroutine of its own). An owner that
// alternates Send and Recv, as the coupling does, keeps one side of the
// link in a call at all times.
type Transport interface {
	Send(msgs []Message) error
	Recv() ([]Message, error)
	Close() error
}

// pipeEnd is one side of an in-process transport built on buffered
// channels — the default coupling when both engines live in one process.
// A unit crosses the channel whole, exactly like a frame crosses a socket.
type pipeEnd struct {
	out  chan<- []Message
	in   <-chan []Message
	done chan struct{}
	once *sync.Once
}

// Pipe returns two connected in-process transports.
func Pipe(buffer int) (a, b Transport) {
	ab := make(chan []Message, buffer)
	ba := make(chan []Message, buffer)
	done := make(chan struct{})
	once := &sync.Once{}
	return &pipeEnd{out: ab, in: ba, done: done, once: once},
		&pipeEnd{out: ba, in: ab, done: done, once: once}
}

// ErrClosed is returned after Close.
var ErrClosed = net.ErrClosed

// Send implements Transport. The unit is copied so the caller may reuse
// msgs. The closed check takes priority: without it, a Go select between
// the closed done channel and free buffer space picks randomly, letting
// sends sneak through after Close.
func (p *pipeEnd) Send(msgs []Message) error {
	if len(msgs) == 0 {
		return errEmptyUnit
	}
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	u := append([]Message(nil), msgs...)
	select {
	case <-p.done:
		return ErrClosed
	case p.out <- u:
		return nil
	}
}

// Recv implements Transport, draining anything already queued before
// reporting closure.
func (p *pipeEnd) Recv() ([]Message, error) {
	select {
	case u := <-p.in:
		return u, nil
	case <-p.done:
		select {
		case u := <-p.in:
			return u, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close implements Transport; closing either end closes both.
func (p *pipeEnd) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// connTransport frames units over a net.Conn (TCP or Unix domain socket)
// — the real-IPC deployment of the coupling.
type connTransport struct {
	conn      net.Conn
	bw        *bufio.Writer
	br        *bufio.Reader
	wmu       sync.Mutex
	rmu       sync.Mutex
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps an established connection.
func NewConn(c net.Conn) Transport {
	return &connTransport{conn: c, bw: bufio.NewWriter(c), br: bufio.NewReader(c)}
}

// Dial connects to a listening coupling endpoint. network is "tcp" or
// "unix".
func Dial(network, addr string) (Transport, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// Send implements Transport: one frame, one flush, so the peer's blocking
// Recv always makes progress. A Send racing Close reports ErrClosed,
// never a bare net error.
func (t *connTransport) Send(msgs []Message) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.closed.Load() {
		return ErrClosed
	}
	if err := Encode(t.bw, msgs); err != nil {
		return t.mapErr(err)
	}
	return t.mapErr(t.bw.Flush())
}

// mapErr folds errors caused by a concurrent local Close into ErrClosed.
func (t *connTransport) mapErr(err error) error {
	if err == nil {
		return nil
	}
	if t.closed.Load() || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

// Recv implements Transport, decoding the next frame.
func (t *connTransport) Recv() ([]Message, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	u, err := Decode(t.br)
	return u, t.mapErr(err)
}

// Close implements Transport. It is idempotent and safe to call
// concurrently with Send/Recv; repeated calls return the first result.
func (t *connTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		t.closeErr = t.conn.Close()
	})
	return t.closeErr
}
