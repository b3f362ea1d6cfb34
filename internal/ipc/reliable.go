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

// recvDepth bounds the delivered units waiting for Recv. Past it an
// in-order envelope is left unacknowledged, so the peer's retransmission
// is the back-pressure. The alternating coupling has at most one unit in
// flight per direction.
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
//
// No goroutine reads the link: Send and Recv read inner themselves. One
// caller at a time holds the read role and dispatches every unit it
// reads, whichever call it is in; other callers wait for the role or for
// what it delivers. So the envelope acknowledges only while its owner is
// inside Send or Recv — an owner that alternates, as Remote and
// EntityServer do, always keeps one side of the link in a call. One timer
// per transport retransmits the in-flight frame.
type ReliableTransport struct {
	inner Transport
	cfg   ReliableConfig

	sendMu sync.Mutex // one in-flight data frame
	wmu    sync.Mutex // serializes inner.Send (acks interleave with data)
	seq    uint32     // last data sequence number sent, under sendMu
	// out is the one-message unit every envelope and ack travels in,
	// reused under wmu (Send does not retain it).
	out [1]Message
	// retry fires when the in-flight frame's acknowledgement is overdue;
	// each transmission re-arms it.
	retry *time.Timer

	mu sync.Mutex
	// cond (on mu) wakes callers waiting for the read role, for a
	// delivered unit or acknowledgement, or for the transport to fail.
	cond         sync.Cond
	reading      bool        // a caller holds the read role
	recvq        [][]Message // delivered units waiting for Recv
	lastAccepted uint32
	acked        uint32 // highest sequence number the peer acknowledged
	flight       inflight
	failErr      error
	stats        ReliableStats

	obs relObs
}

// inflight is the data frame awaiting its acknowledgement.
type inflight struct {
	frame   Message
	seq     uint32 // 0: nothing in flight
	attempt int    // retransmissions so far
	wait    time.Duration
	due     time.Time // when the current transmission's ack is overdue
}

// Instrument routes the envelope counters into the registry under the
// given prefix (conventionally "ipc.reliable"), in addition to the
// Stats() snapshot. Counts accumulated before Instrument stay only in
// Stats; a nil registry is a no-op. Safe to call concurrently with Send
// and Recv.
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

// NewReliable wraps inner in the reliability envelope. It starts no
// goroutine; Close stops the retry timer and closes inner.
func NewReliable(inner Transport, cfg ReliableConfig) *ReliableTransport {
	t := &ReliableTransport{inner: inner, cfg: cfg.withDefaults()}
	t.cond.L = &t.mu
	t.retry = time.AfterFunc(time.Hour, t.retransmit)
	t.retry.Stop()
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

// fail records the terminal error (first error wins), wakes every waiter
// and closes inner, which releases a caller blocked in inner.Recv.
func (t *ReliableTransport) fail(err error) error {
	t.mu.Lock()
	if t.failErr == nil {
		t.failErr = err
	}
	t.cond.Broadcast()
	t.mu.Unlock()
	t.retry.Stop()
	return t.inner.Close()
}

// termErr is the error Send/Recv report once the transport is down.
// Callers hold mu.
func (t *ReliableTransport) termErr() error {
	if errors.Is(t.failErr, ErrClosed) {
		return ErrClosed
	}
	return t.failErr
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

// Send implements Transport: the whole unit rides in one envelope and
// the peer's single ack covers it, so a lossy link costs at most one
// retransmission per δ-window instead of one per cell. It blocks, reading
// the link, until the frame is acknowledged or the retry budget is spent.
func (t *ReliableTransport) Send(msgs []Message) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	seq := t.seq + 1
	frame, err := envelope(seq, msgs)
	if err != nil {
		return err // nothing sent: seq stays free, the stream has no gap
	}
	t.mu.Lock()
	if t.failErr != nil {
		defer t.mu.Unlock()
		return t.termErr()
	}
	t.seq = seq
	base := t.cfg.RetryBase
	t.flight = inflight{frame: frame, seq: seq, wait: base, due: time.Now().Add(base)}
	t.mu.Unlock()

	if err := t.write(frame); err != nil {
		t.mu.Lock()
		t.flight = inflight{}
		t.mu.Unlock()
		return err
	}
	t.bump(func(s *ReliableStats) { s.Sent++ }).sent.Inc()
	t.retry.Reset(base)
	t.mu.Lock()
	err = t.await(func() bool { return t.acked >= seq })
	t.flight = inflight{}
	t.mu.Unlock()
	t.retry.Stop()
	return err
}

// retransmit is the retry timer's callback: it rewrites the in-flight
// frame with the next backoff step, or fails the transport once the retry
// budget is spent. It reads the frame, its wait and its deadline under
// mu, so a stale firing — the frame was acknowledged and the timer
// re-armed for the next one — finds a deadline still ahead and only
// re-arms.
func (t *ReliableTransport) retransmit() {
	t.mu.Lock()
	f := &t.flight
	if f.seq == 0 || t.acked >= f.seq || t.failErr != nil {
		t.mu.Unlock()
		return
	}
	if early := time.Until(f.due); early > 0 {
		t.mu.Unlock()
		t.retry.Reset(early)
		return
	}
	if f.attempt >= t.cfg.MaxRetries {
		// A stop-and-wait envelope that abandons a frame can no longer
		// keep its exactly-once promise: the link is dead. Failing the
		// transport closes inner, which releases the caller reading it
		// and the peer's Recv instead of leaving them on a half-alive
		// pipe.
		err := fmt.Errorf("%w: seq %d unacknowledged after %d attempts", ErrTimeout, f.seq, f.attempt+1)
		t.stats.Timeouts++
		o := t.obs
		t.mu.Unlock()
		o.tout.Inc()
		t.fail(err)
		return
	}
	f.attempt++
	f.wait = min(2*f.wait, t.cfg.RetryCap)
	f.due = time.Now().Add(f.wait)
	frame, wait := f.frame, f.wait
	t.stats.Retransmits++
	o := t.obs
	t.mu.Unlock()
	o.retransmits.Inc()
	t.retry.Reset(wait)
	if err := t.write(frame); err != nil {
		t.fail(err)
	}
}

// Recv implements Transport: it delivers the next in-order application
// unit, reading the link itself when no other caller is. After Close or
// link failure it drains already-delivered units first, then reports the
// terminal error.
func (t *ReliableTransport) Recv() ([]Message, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.await(func() bool { return len(t.recvq) > 0 }); err != nil {
		return nil, err
	}
	u := t.recvq[0]
	n := copy(t.recvq, t.recvq[1:])
	t.recvq[n] = nil
	t.recvq = t.recvq[:n]
	return u, nil
}

// await returns once ready holds, or with the terminal error once the
// transport is down. While neither is so it holds the read role — reading
// inner and dispatching each unit — or, when another caller holds it,
// waits on cond. Callers hold mu; await releases it around inner.Recv.
func (t *ReliableTransport) await(ready func() bool) error {
	for !ready() {
		if t.failErr != nil {
			return t.termErr()
		}
		if t.reading {
			t.cond.Wait()
			continue
		}
		t.reading = true
		t.mu.Unlock()
		u, err := t.inner.Recv()
		t.dispatch(u, err)
		t.mu.Lock()
		t.reading = false
		t.cond.Broadcast()
	}
	return nil
}

// Close implements Transport; it is idempotent and safe to call
// concurrently with Send and Recv.
func (t *ReliableTransport) Close() error {
	return t.fail(ErrClosed)
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

// dispatch handles one result of inner.Recv for the read role's holder:
// it verifies, deduplicates, acknowledges and queues data frames, and
// records acks for the waiting Send. Envelopes and acks always travel
// alone, so any other unit is dropped as corrupt; a read error fails the
// transport.
func (t *ReliableTransport) dispatch(u []Message, err error) {
	if err != nil {
		t.fail(err)
		return
	}
	if len(u) != 1 {
		t.dropCorrupt()
		return
	}
	m := u[0]
	switch m.Kind {
	case KindRelData:
		seq, inner, err := openEnvelope(m.Data)
		if err != nil {
			t.dropCorrupt()
			return
		}
		n := uint64(len(inner))
		t.mu.Lock()
		dup := seq <= t.lastAccepted
		// A gap is impossible under stop-and-wait, and a full queue is
		// back-pressure: either way the frame goes unacknowledged and the
		// sender's retransmission recovers it.
		accept := seq == t.lastAccepted+1 && len(t.recvq) < recvDepth
		switch {
		case dup:
			t.stats.DupDropped++
		case accept:
			t.lastAccepted = seq
			t.recvq = append(t.recvq, inner)
			t.stats.Delivered += n
		}
		o := t.obs
		t.mu.Unlock()
		switch {
		case dup:
			// Already delivered; the peer missed our ack — repeat it.
			o.dupDropped.Inc()
			t.sendAck(seq)
		case accept:
			o.delivered.Add(n)
			t.sendAck(seq)
		}
	case KindRelAck:
		if len(m.Data) < 8 ||
			crc32.ChecksumIEEE(m.Data[:4]) != binary.BigEndian.Uint32(m.Data[4:]) {
			t.dropCorrupt()
			return
		}
		a := binary.BigEndian.Uint32(m.Data)
		t.mu.Lock()
		t.acked = max(t.acked, a) // stale acks from older frames change nothing
		t.mu.Unlock()
	default:
		t.dropCorrupt()
	}
}
