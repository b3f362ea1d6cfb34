package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// fastRel is a test config with tight timers so lossy-link tests finish
// quickly.
func fastRel() ReliableConfig {
	return ReliableConfig{
		MaxRetries: 20,
		RetryBase:  time.Millisecond,
		RetryCap:   8 * time.Millisecond,
	}
}

func TestReliableCleanRoundTrip(t *testing.T) {
	// The far end alternates receive-then-answer in its own goroutine, as
	// an EntityServer does: an envelope acknowledges only while its owner
	// is inside Send or Recv. A clean link needs no retransmission, so
	// the first retry waits a second: with fastRel's 1 ms a scheduling
	// stall under the race detector alone can trigger one.
	a, b := Pipe(16)
	clean := ReliableConfig{RetryBase: time.Second, RetryCap: time.Second}
	ra := NewReliable(a, clean)
	rb := NewReliable(b, clean)
	defer ra.Close()
	defer rb.Close()
	far := make(chan error, 1)
	go func() {
		far <- func() error {
			for i := 0; i < 10; i++ {
				u, err := rb.Recv()
				if err != nil {
					return err
				}
				if len(u) != 1 || u[0].Time != msg(i).Time || u[0].Kind != KindUser {
					return fmt.Errorf("message %d arrived as %v", i, u)
				}
				// Reverse direction interleaved.
				if err := rb.Send(one(msg(100 + i))); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	for i := 0; i < 10; i++ {
		if err := ra.Send(one(msg(i))); err != nil {
			t.Fatal(err)
		}
		if back, err := recvOne(t, ra); err != nil || back.Time != msg(100+i).Time {
			t.Fatalf("reverse %d = %v, %v", i, back, err)
		}
	}
	if err := <-far; err != nil {
		t.Fatal(err)
	}
	if st := ra.Stats(); st.Retransmits != 0 || st.Sent != 10 {
		t.Errorf("clean link stats: %+v", st)
	}
}

func TestReliableExactlyOnceOverLossyLink(t *testing.T) {
	// 25% drop, 10% duplication and 10% corruption in both directions:
	// the envelope must still deliver every message exactly once, in
	// order, with intact payloads. The receiver drains until the sender
	// has finished and only then closes, so a lost final ack is repeated
	// when the last envelope's retransmission arrives.
	const n = 150
	a, b := Pipe(64)
	fault := NewFault(a, FaultConfig{
		Seed: 42,
		Send: DirFaults{Drop: 0.25, Dup: 0.1, Corrupt: 0.1},
		Recv: DirFaults{Drop: 0.25, Dup: 0.1, Corrupt: 0.1},
	})
	ra := NewReliable(fault, fastRel())
	rb := NewReliable(b, fastRel())
	defer ra.Close()

	recvDone := make(chan error, 1)
	var got []Message
	go func() {
		for {
			u, err := rb.Recv()
			if err != nil {
				if errors.Is(err, ErrClosed) {
					err = nil
				}
				recvDone <- err
				return
			}
			got = append(got, u...)
		}
	}()
	for i := 0; i < n; i++ {
		if err := ra.Send(one(msg(i))); err != nil {
			rb.Close()
			t.Fatalf("send %d: %v", i, err)
		}
	}
	rb.Close()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d", len(got), n)
	}
	for i, m := range got {
		want := msg(i)
		if m.Time != want.Time || string(m.Data) != string(want.Data) {
			t.Fatalf("delivery %d corrupted or out of order: %v", i, m)
		}
	}
	st := ra.Stats()
	if st.Retransmits == 0 {
		t.Error("lossy link caused no retransmissions")
	}
	rst := rb.Stats()
	if rst.DupDropped == 0 {
		t.Error("no duplicates suppressed despite retransmissions and link dup")
	}
	if rst.CorruptDropped == 0 {
		t.Error("no corrupt frames caught by the CRC")
	}
}

func TestReliableSendTimesOutOnPartition(t *testing.T) {
	// The link passes one unit and is then severed for good: the next
	// Send must spend its whole retry budget and then give up, bounded by
	// (MaxRetries+1)·RetryCap — no other timer stands behind it. The peer
	// drains in a goroutine, so the unit before the partition is
	// acknowledged.
	a, b := Pipe(16)
	fault := NewFault(a, FaultConfig{Seed: 1, Send: DirFaults{PartitionAfter: 1}})
	cfg := ReliableConfig{MaxRetries: 3, RetryBase: 20 * time.Millisecond, RetryCap: 20 * time.Millisecond}
	r := NewReliable(fault, cfg)
	peer := NewReliable(b, cfg)
	defer r.Close()
	defer peer.Close()
	go func() {
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	if err := r.Send(one(msg(0))); err != nil {
		t.Fatalf("send before the partition: %v", err)
	}
	start := time.Now()
	err := r.Send(one(msg(1)))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	budget := time.Duration(cfg.MaxRetries+1) * cfg.RetryCap
	// The lower bound proves every retry waited; the upper one allows for
	// scheduling only.
	if elapsed < budget || elapsed > budget+2*time.Second {
		t.Errorf("retry exhaustion took %v, want the %v budget", elapsed, budget)
	}
	if st := r.Stats(); st.Retransmits != uint64(cfg.MaxRetries) || st.Timeouts != 1 {
		t.Errorf("stats %+v, want %d retransmits and one timeout", st, cfg.MaxRetries)
	}
	if st := fault.Stats(); st.Partitioned != uint64(cfg.MaxRetries+1) {
		t.Errorf("partitioned %d units, want %d", st.Partitioned, cfg.MaxRetries+1)
	}
}

// echo answers every unit rb receives with the same unit until rb fails,
// then closes done.
func echo(rb *ReliableTransport, done chan<- struct{}) {
	defer close(done)
	for {
		u, err := rb.Recv()
		if err != nil {
			return
		}
		if rb.Send(u) != nil {
			return
		}
	}
}

func TestReliableStartsNoGoroutine(t *testing.T) {
	// Send and Recv read the link themselves: while both ends run 200
	// round trips the only extra goroutine is the test's own echo peer,
	// and after Close the count is back at its baseline. The retry timer
	// never fires on this clean link, so it contributes none either.
	settle := func(limit int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > limit && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	baseline := runtime.NumGoroutine()
	cfg := ReliableConfig{RetryBase: time.Second, RetryCap: time.Second}
	a, b := Pipe(16)
	ra, rb := NewReliable(a, cfg), NewReliable(b, cfg)
	done := make(chan struct{})
	go echo(rb, done)
	for i := 0; i < 200; i++ {
		if err := ra.Send(one(msg(i))); err != nil {
			t.Fatal(err)
		}
		if back, err := recvOne(t, ra); err != nil || !sameMessage(back, msg(i)) {
			t.Fatalf("round trip %d = %v, %v", i, back, err)
		}
		if i == 100 {
			if n := settle(baseline + 1); n > baseline+1 {
				t.Errorf("%d goroutines mid-run, want the baseline %d plus the echo peer", n, baseline)
			}
		}
	}
	ra.Close()
	rb.Close()
	<-done
	if n := settle(baseline); n > baseline {
		t.Errorf("%d goroutines after Close, want the baseline %d", n, baseline)
	}
}

// dropFirstAck swallows the first acknowledgement sent through it.
type dropFirstAck struct {
	Transport
	dropped atomic.Bool
}

func (d *dropFirstAck) Send(msgs []Message) error {
	if len(msgs) == 1 && msgs[0].Kind == KindRelAck && d.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return d.Transport.Send(msgs)
}

func TestReliableLostAckRepeatedByNextCall(t *testing.T) {
	// The receiver's first ack is lost while its owner steps outside the
	// envelope. Nobody reads that end, so the sender's retransmissions go
	// unanswered until the owner enters its next call; that call finds the
	// duplicate, drops it and repeats the ack, and the unit still arrives
	// exactly once.
	a, b := Pipe(16)
	cfg := ReliableConfig{MaxRetries: 20, RetryBase: time.Millisecond, RetryCap: 20 * time.Millisecond}
	ra := NewReliable(a, cfg)
	rb := NewReliable(&dropFirstAck{Transport: b}, cfg)
	defer ra.Close()
	defer rb.Close()
	sent := make(chan error, 1)
	go func() { sent <- ra.Send(one(msg(0))) }()
	if got, err := recvOne(t, rb); err != nil || !sameMessage(got, msg(0)) {
		t.Fatalf("first delivery %v, %v", got, err)
	}
	select {
	case err := <-sent:
		t.Fatalf("Send returned %v while its ack was lost and the receiver idle", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The receiver's next call repeats the ack.
	next := make(chan error, 1)
	go func() {
		u, err := rb.Recv()
		if err == nil && (len(u) != 1 || !sameMessage(u[0], msg(1))) {
			err = fmt.Errorf("second delivery %v, want %v", u, msg(1))
		}
		next <- err
	}()
	if err := <-sent; err != nil {
		t.Fatalf("send after the receiver's next call: %v", err)
	}
	if err := ra.Send(one(msg(1))); err != nil {
		t.Fatal(err)
	}
	if err := <-next; err != nil {
		t.Fatal(err)
	}
	if st := ra.Stats(); st.Retransmits < 1 {
		t.Errorf("sender stats %+v, want a retransmission", st)
	}
	if st := rb.Stats(); st.DupDropped < 1 || st.Delivered != 2 {
		t.Errorf("receiver stats %+v, want a suppressed duplicate and two deliveries", st)
	}
}

func TestReliableConcurrentSendRecv(t *testing.T) {
	// One goroutine sends while another receives on the same transport,
	// so the read role passes between Send and Recv; against an echoing
	// peer every unit comes back exactly once and in order.
	const n = 200
	a, b := Pipe(16)
	ra, rb := NewReliable(a, fastRel()), NewReliable(b, fastRel())
	defer ra.Close()
	done := make(chan struct{})
	go echo(rb, done)
	defer func() { rb.Close(); <-done }()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := ra.Send(one(msg(i))); err != nil {
				sent <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < n; i++ {
		got, err := recvOne(t, ra)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !sameMessage(got, msg(i)) {
			t.Fatalf("echo %d = %v, want %v", i, got, msg(i))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if st := ra.Stats(); st.Delivered != n {
		t.Errorf("stats %+v, want %d deliveries", st, n)
	}
}

// ackFor is the far end's acknowledgement of seq.
func ackFor(seq uint32) []Message {
	b := binary.BigEndian.AppendUint32(nil, seq)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return one(Message{Kind: KindRelAck, Data: b})
}

func TestReliableStaleRetryDoesNotResend(t *testing.T) {
	// A retry firing left over from an acknowledged frame can run after
	// the next frame went out. It must find that frame's deadline still
	// ahead and not resend it early, and once the frame is acknowledged a
	// firing must send nothing at all.
	a, b := Pipe(16)
	r := NewReliable(a, ReliableConfig{RetryBase: time.Hour, RetryCap: time.Hour})
	defer r.Close()
	sent := make(chan error, 1)
	go func() { sent <- r.Send(one(msg(0))) }()
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	r.retransmit() // stale: the frame's first wait has barely begun
	if st := r.Stats(); st.Retransmits != 0 {
		t.Fatalf("stale firing resent the in-flight frame: %+v", st)
	}
	if err := b.Send(ackFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	r.retransmit() // nothing in flight
	if st := r.Stats(); st.Retransmits != 0 || st.Sent != 1 {
		t.Errorf("stats %+v, want one transmission and no retransmission", st)
	}
}

func TestReliableRejectedUnitLeavesNoGap(t *testing.T) {
	// A unit the envelope cannot encode is refused before anything goes
	// out, so it must not use up a sequence number: a gap would make the
	// receiver drop every later envelope until the sender times out.
	a, b := Pipe(16)
	ra, rb := NewReliable(a, fastRel()), NewReliable(b, fastRel())
	defer ra.Close()
	done := make(chan struct{})
	go echo(rb, done)
	defer func() { rb.Close(); <-done }()
	if err := ra.Send(one(Message{Kind: KindUser, Data: make([]byte, MaxData+1)})); err == nil {
		t.Fatal("oversized unit accepted")
	}
	if err := ra.Send(one(msg(0))); err != nil {
		t.Fatalf("send after a refused unit: %v", err)
	}
	if got, err := recvOne(t, ra); err != nil || !sameMessage(got, msg(0)) {
		t.Fatalf("echo %v, %v", got, err)
	}
}

func TestReliableDropsRawFrames(t *testing.T) {
	// Both ends are always enveloped: a raw unit of one and a
	// multi-message unit from the far end are corrupt, not deliverable.
	// The valid envelope behind them is the first thing Recv sees.
	a, b := Pipe(16)
	r := NewReliable(a, fastRel())
	defer r.Close()
	if err := b.Send(one(msg(0))); err != nil {
		t.Fatal(err)
	}
	if err := b.Send([]Message{msg(1), msg(2)}); err != nil {
		t.Fatal(err)
	}
	env, err := envelope(1, one(msg(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(one(env)); err != nil {
		t.Fatal(err)
	}
	got, err := recvOne(t, r)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMessage(got, msg(3)) {
		t.Fatalf("first delivery %v, want the enveloped %v", got, msg(3))
	}
	if st := r.Stats(); st.CorruptDropped != 2 || st.Delivered != 1 {
		t.Errorf("stats %+v, want both raw units dropped as corrupt", st)
	}
}

func TestReliableCloseIdempotentAndConcurrent(t *testing.T) {
	a, b := Pipe(16)
	ra := NewReliable(a, fastRel())
	go func() {
		for i := 0; i < 50; i++ {
			if err := ra.Send(one(msg(i))); err != nil {
				if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
					panic(err)
				}
				return
			}
		}
	}()
	go func() {
		rb := NewReliable(b, fastRel())
		for {
			if _, err := rb.Recv(); err != nil {
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := ra.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if err := ra.Send(one(msg(0))); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
}
