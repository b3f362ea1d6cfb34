package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"castanet/internal/obs"
)

// Reserved message kinds of the reliability envelope. They live below
// KindUser with the other protocol kinds, so the envelope travels inside
// ordinary frames and the wire format stays unchanged.
const (
	// KindRelData wraps one application unit: seq(4) crc32(4) followed by
	// the unit's frame in standard wire format, so one acknowledgement
	// covers the whole unit.
	KindRelData Kind = 3
	// KindRelAck acknowledges a data sequence number: seq(4) crc32(4).
	// The CRC keeps a corrupted ack from masquerading as a different
	// (possibly future) acknowledgement.
	KindRelAck Kind = 4
	// KindRelHeartbeat is reserved and never sent; an inbound one is
	// dropped as corrupt like any other unit that is not an envelope or
	// an ack.
	KindRelHeartbeat Kind = 5
)

// recvDepth bounds the delivered units waiting for Recv; past it the read
// loop waits. The alternating coupling has at most one unit in flight
// per direction.
const recvDepth = 256

// ErrTimeout reports that a reliable operation exhausted its retry budget
// without an acknowledgement.
var ErrTimeout = errors.New("ipc: operation timed out")

// ReliableConfig tunes the reliability envelope. The retry budget bounds
// one Send: at most MaxRetries+1 transmissions, each waiting at most
// RetryCap for the acknowledgement.
type ReliableConfig struct {
	// MaxRetries bounds retransmissions per data frame (default 8).
	MaxRetries int
	// RetryBase is the first acknowledgement wait (default 2ms); it
	// doubles per retry up to RetryCap (default 100ms).
	RetryBase time.Duration
	RetryCap  time.Duration
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RetryBase == 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryCap == 0 {
		c.RetryCap = 100 * time.Millisecond
	}
	return c
}

// ReliableStats counts envelope activity.
type ReliableStats struct {
	Sent           uint64 // data frames sent first time
	Retransmits    uint64
	Delivered      uint64 // in-order data messages handed to Recv
	AcksSent       uint64
	CorruptDropped uint64 // units that are not one valid envelope or ack
	DupDropped     uint64 // retransmit duplicates suppressed
	Timeouts       uint64 // sends abandoned with the retry budget spent
}

// relObs mirrors ReliableStats into registry counters (all nil when the
// transport is uninstrumented; obs counters are nil-safe).
type relObs struct {
	sent, retransmits, delivered, acksSent *obs.Counter
	corruptDropped, dupDropped, tout       *obs.Counter
}

// ReliableTransport layers exactly-once, in-order delivery over a lossy
// Transport: every application unit travels in a CRC-protected envelope
// with a sequence number, is acknowledged by the peer, and is
// retransmitted with capped exponential backoff until acknowledged or
// the retry budget runs out. Duplicates created by
// retransmission (or by the link itself) are suppressed by sequence
// number. The sender is stop-and-wait — one data frame in flight — which
// the strictly alternating co-simulation protocol never notices. Both
// ends must be enveloped: an inbound unit that is not one valid envelope
// or acknowledgement is dropped and counted, never delivered.
type ReliableTransport struct {
	inner Transport
	cfg   ReliableConfig

	sendMu sync.Mutex // one in-flight data frame
	wmu    sync.Mutex // serializes inner.Send (acks interleave with data)
	seq    uint32

	recvq chan []Message
	acks  chan uint32
	// out is the one-message unit every envelope and ack travels in,
	// reused under wmu (Send does not retain it).
	out [1]Message

	done     chan struct{}
	doneOnce sync.Once

	mu           sync.Mutex
	lastAccepted uint32
	failErr      error
	stats        ReliableStats

	obs relObs
}

// Instrument routes the envelope counters into the registry under the
// given prefix (conventionally "ipc.reliable"), in addition to the
// Stats() snapshot. Counts accumulated before Instrument stay only in
// Stats; a nil registry is a no-op. Safe to call while the transport's
// goroutines are running.
func (t *ReliableTransport) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	o := relObs{
		sent:           reg.Counter(prefix + ".sent"),
		retransmits:    reg.Counter(prefix + ".retransmits"),
		delivered:      reg.Counter(prefix + ".delivered"),
		acksSent:       reg.Counter(prefix + ".acks_sent"),
		corruptDropped: reg.Counter(prefix + ".corrupt_dropped"),
		dupDropped:     reg.Counter(prefix + ".dup_dropped"),
		tout:           reg.Counter(prefix + ".timeouts"),
	}
	t.mu.Lock()
	t.obs = o
	t.mu.Unlock()
}

// NewReliable wraps inner in the reliability envelope and starts its
// reader goroutine. Close releases it.
func NewReliable(inner Transport, cfg ReliableConfig) *ReliableTransport {
	t := &ReliableTransport{
		inner: inner,
		cfg:   cfg.withDefaults(),
		recvq: make(chan []Message, recvDepth),
		acks:  make(chan uint32, 16),
		done:  make(chan struct{}),
	}
	go t.readLoop()
	return t
}

// Stats returns a snapshot of the envelope counters.
func (t *ReliableTransport) Stats() ReliableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// bump applies one counter update under the mutex and returns the current
// registry handles, so call sites can mirror the update into the registry
// with e.g. t.bump(...).sent.Inc() — the handles are nil (and Inc a
// no-op) until Instrument is called.
func (t *ReliableTransport) bump(fn func(*ReliableStats)) relObs {
	t.mu.Lock()
	fn(&t.stats)
	o := t.obs
	t.mu.Unlock()
	return o
}

// fail records the terminal error, wakes every waiter and tears the link
// down. First error wins.
func (t *ReliableTransport) fail(err error) {
	t.mu.Lock()
	if t.failErr == nil {
		t.failErr = err
	}
	t.mu.Unlock()
	t.doneOnce.Do(func() { close(t.done) })
	t.inner.Close()
}

// termErr is the error Send/Recv report once the transport is down.
func (t *ReliableTransport) termErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failErr != nil && !errors.Is(t.failErr, ErrClosed) {
		return t.failErr
	}
	return ErrClosed
}

func (t *ReliableTransport) write(m Message) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.out[0] = m
	return t.inner.Send(t.out[:])
}

// envelope wraps msgs in one KindRelData frame, encoded into a buffer of
// exactly its size, so the caller's slice is not retained across
// retransmissions. The envelope carries the unit's last time stamp.
func envelope(seq uint32, msgs []Message) (Message, error) {
	b, err := appendFrame(make([]byte, 8, 8+frameBytes(msgs)), msgs)
	if err != nil {
		return Message{}, err
	}
	binary.BigEndian.PutUint32(b[0:], seq)
	binary.BigEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:]))
	return Message{Kind: KindRelData, Time: msgs[len(msgs)-1].Time, Data: b}, nil
}

// openEnvelope verifies and unwraps a KindRelData frame into its unit.
// Payloads alias data. A CRC-valid envelope around an undecodable inner
// frame is still a corrupt frame: every failure reports ErrBadFrame, so
// receivers drop it instead of treating the stream as terminated.
func openEnvelope(data []byte) (uint32, []Message, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("%w: short envelope", ErrBadFrame)
	}
	seq := binary.BigEndian.Uint32(data[0:])
	if crc32.ChecksumIEEE(data[8:]) != binary.BigEndian.Uint32(data[4:]) {
		return 0, nil, fmt.Errorf("%w: envelope crc mismatch", ErrBadFrame)
	}
	msgs, err := decodeBytes(data[8:])
	return seq, msgs, err
}

// sendFrame transmits one sealed data frame, blocking until the peer
// acknowledges seq, retransmitting with capped exponential backoff, and
// returns a timeout error once the retry budget is spent. Callers hold
// sendMu.
func (t *ReliableTransport) sendFrame(frame Message, seq uint32) error {
	wait := t.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		if err := t.write(frame); err != nil {
			return err
		}
		if attempt == 0 {
			t.bump(func(s *ReliableStats) { s.Sent++ }).sent.Inc()
		} else {
			t.bump(func(s *ReliableStats) { s.Retransmits++ }).retransmits.Inc()
		}
		timer := time.NewTimer(wait)
		acked := false
	waiting:
		for {
			select {
			case a := <-t.acks:
				if a >= seq { // stale acks from older frames are skipped
					acked = true
					break waiting
				}
			case <-timer.C:
				break waiting
			case <-t.done:
				timer.Stop()
				return t.termErr()
			}
		}
		timer.Stop()
		if acked {
			return nil
		}
		if attempt >= t.cfg.MaxRetries {
			// A stop-and-wait envelope that abandons a frame can no longer
			// keep its exactly-once promise: the link is dead. Failing the
			// transport also unblocks the peer's Recv instead of leaving it
			// waiting on a half-alive pipe.
			err := fmt.Errorf("%w: seq %d unacknowledged after %d attempts", ErrTimeout, seq, attempt+1)
			t.bump(func(s *ReliableStats) { s.Timeouts++ }).tout.Inc()
			t.fail(err)
			return err
		}
		wait *= 2
		if wait > t.cfg.RetryCap {
			wait = t.cfg.RetryCap
		}
	}
}

// Send implements Transport: the whole unit rides in one envelope and
// the peer's single ack covers it, so a lossy link costs at most one
// retransmission per δ-window instead of one per cell. It blocks until
// the frame is acknowledged or the retry budget is spent.
func (t *ReliableTransport) Send(msgs []Message) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	select {
	case <-t.done:
		return t.termErr()
	default:
	}
	t.seq++
	seq := t.seq
	frame, err := envelope(seq, msgs)
	if err != nil {
		return err
	}
	return t.sendFrame(frame, seq)
}

// Recv implements Transport: it delivers the next in-order application
// unit. After Close or link failure it drains already-delivered units
// first, then reports the terminal error.
func (t *ReliableTransport) Recv() ([]Message, error) {
	select {
	case u := <-t.recvq:
		return u, nil
	case <-t.done:
		select {
		case u := <-t.recvq:
			return u, nil
		default:
			return nil, t.termErr()
		}
	}
}

// Close implements Transport; it is idempotent and safe to call
// concurrently with Send and Recv.
func (t *ReliableTransport) Close() error {
	t.doneOnce.Do(func() { close(t.done) })
	return t.inner.Close()
}

func (t *ReliableTransport) sendAck(seq uint32) {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], seq)
	binary.BigEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[:4]))
	if err := t.write(Message{Kind: KindRelAck, Data: b[:]}); err == nil {
		t.bump(func(s *ReliableStats) { s.AcksSent++ }).acksSent.Inc()
	}
}

// dropCorrupt counts one inbound unit that is not a valid envelope or
// acknowledgement. It is not acknowledged: the sender retransmits, which
// is the recovery.
func (t *ReliableTransport) dropCorrupt() {
	t.bump(func(s *ReliableStats) { s.CorruptDropped++ }).corruptDropped.Inc()
}

// readLoop owns the inner receive side: it verifies, deduplicates and
// acknowledges data frames and routes acks to the sender. Envelopes and
// acks always travel alone, so any other unit is dropped as corrupt.
func (t *ReliableTransport) readLoop() {
	for {
		u, err := t.inner.Recv()
		if err != nil {
			t.fail(err)
			return
		}
		if len(u) != 1 {
			t.dropCorrupt()
			continue
		}
		m := u[0]
		switch m.Kind {
		case KindRelData:
			seq, inner, err := openEnvelope(m.Data)
			if err != nil {
				t.dropCorrupt()
				continue
			}
			t.mu.Lock()
			dup := seq <= t.lastAccepted
			inOrder := seq == t.lastAccepted+1
			if inOrder {
				t.lastAccepted = seq
			}
			t.mu.Unlock()
			if dup {
				// Already delivered; the peer missed our ack — repeat it.
				t.bump(func(s *ReliableStats) { s.DupDropped++ }).dupDropped.Inc()
				t.sendAck(seq)
				continue
			}
			if !inOrder {
				// A gap is impossible under stop-and-wait; drop without
				// ack so the sender recovers it.
				continue
			}
			t.sendAck(seq)
			n := uint64(len(inner))
			select {
			case t.recvq <- inner:
				t.bump(func(s *ReliableStats) { s.Delivered += n }).delivered.Add(n)
			case <-t.done:
				return
			}
		case KindRelAck:
			if len(m.Data) < 8 ||
				crc32.ChecksumIEEE(m.Data[:4]) != binary.BigEndian.Uint32(m.Data[4:]) {
				t.dropCorrupt()
				continue
			}
			select {
			case t.acks <- binary.BigEndian.Uint32(m.Data):
			default: // stale ack with no waiter
			}
		default:
			t.dropCorrupt()
		}
	}
}
