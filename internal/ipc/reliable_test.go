package ipc

import (
	"errors"
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
	a, b := Pipe(16)
	ra := NewReliable(a, fastRel())
	rb := NewReliable(b, fastRel())
	defer ra.Close()
	defer rb.Close()
	for i := 0; i < 10; i++ {
		if err := ra.Send(one(msg(i))); err != nil {
			t.Fatal(err)
		}
		got, err := recvOne(t, rb)
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != msg(i).Time || got.Kind != KindUser {
			t.Fatalf("message %d arrived as %v", i, got)
		}
		// Reverse direction interleaved.
		if err := rb.Send(one(msg(100 + i))); err != nil {
			t.Fatal(err)
		}
		if back, err := recvOne(t, ra); err != nil || back.Time != msg(100+i).Time {
			t.Fatalf("reverse %d = %v, %v", i, back, err)
		}
	}
	if st := ra.Stats(); st.Retransmits != 0 || st.Sent != 10 {
		t.Errorf("clean link stats: %+v", st)
	}
}

func TestReliableExactlyOnceOverLossyLink(t *testing.T) {
	// 25% drop, 10% duplication and 10% corruption in both directions:
	// the envelope must still deliver every message exactly once, in
	// order, with intact payloads.
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
	defer rb.Close()

	recvDone := make(chan error, 1)
	var got []Message
	go func() {
		for len(got) < n {
			u, err := rb.Recv()
			if err != nil {
				recvDone <- err
				return
			}
			got = append(got, u...)
		}
		recvDone <- nil
	}()
	for i := 0; i < n; i++ {
		if err := ra.Send(one(msg(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
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
	// (MaxRetries+1)·RetryCap — no other timer stands behind it.
	a, b := Pipe(16)
	fault := NewFault(a, FaultConfig{Seed: 1, Send: DirFaults{PartitionAfter: 1}})
	cfg := ReliableConfig{MaxRetries: 3, RetryBase: 20 * time.Millisecond, RetryCap: 20 * time.Millisecond}
	r := NewReliable(fault, cfg)
	peer := NewReliable(b, cfg)
	defer r.Close()
	defer peer.Close()
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
