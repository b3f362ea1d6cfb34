package ipc

import (
	"errors"
	"testing"
	"time"

	"castanet/internal/sim"
)

// fastRel is a test config with tight timers so lossy-link tests finish
// quickly.
func fastRel() ReliableConfig {
	return ReliableConfig{
		MaxRetries: 20,
		RetryBase:  time.Millisecond,
		RetryCap:   8 * time.Millisecond,
		OpDeadline: 5 * time.Second,
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
	a, _ := Pipe(16)
	fault := NewFault(a, FaultConfig{Seed: 1})
	fault.Partition()
	cfg := fastRel()
	cfg.MaxRetries = 3
	r := NewReliable(fault, cfg)
	defer r.Close()
	start := time.Now()
	err := r.Send(one(msg(0)))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("retry exhaustion took %v", time.Since(start))
	}
}

func TestReliableOpDeadline(t *testing.T) {
	a, _ := Pipe(16)
	fault := NewFault(a, FaultConfig{Seed: 1})
	fault.Partition()
	cfg := fastRel()
	cfg.MaxRetries = 10_000
	cfg.OpDeadline = 30 * time.Millisecond
	r := NewReliable(fault, cfg)
	defer r.Close()
	if err := r.Send(one(msg(0))); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want deadline ErrTimeout", err)
	}
}

func TestReliableHeartbeatDetectsDeadPeer(t *testing.T) {
	// The peer exists but the inbound direction is severed: only the
	// heartbeat watchdog can notice.
	a, b := Pipe(64)
	fault := NewFault(a, FaultConfig{Seed: 1, Recv: DirFaults{PartitionAfter: 1}})
	cfg := fastRel()
	cfg.Heartbeat = 5 * time.Millisecond
	cfg.PeerTimeout = 25 * time.Millisecond
	ra := NewReliable(fault, cfg)
	rb := NewReliable(b, fastRel())
	defer ra.Close()
	defer rb.Close()

	done := make(chan error, 1)
	go func() {
		_, err := ra.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerLost) || !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrPeerLost (a timeout)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
}

func TestReliableAutoNegotiatesRawPeer(t *testing.T) {
	// A plain client against an Auto server: the first (raw) frame pins
	// pass-through mode and traffic flows unchanged both ways.
	a, b := Pipe(16)
	cfg := fastRel()
	cfg.Auto = true
	srv := NewReliable(b, cfg)
	defer srv.Close()
	if err := a.Send(one(Message{Kind: KindInit, Time: 0})); err != nil {
		t.Fatal(err)
	}
	if m, err := recvOne(t, srv); err != nil || m.Kind != KindInit {
		t.Fatalf("server got %v, %v", m, err)
	}
	if err := srv.Send(one(Message{Kind: KindSync, Time: sim.Microsecond})); err != nil {
		t.Fatal(err)
	}
	if m, err := recvOne(t, a); err != nil || m.Kind != KindSync {
		t.Fatalf("plain client got %v, %v — server leaked envelope frames", m, err)
	}
}

func TestReliableAutoNegotiatesEnvelopePeer(t *testing.T) {
	// A reliable client against the same Auto server: the enveloped
	// KindInit pins reliable mode and acknowledgements flow.
	a, b := Pipe(16)
	cfg := fastRel()
	cfg.Auto = true
	srv := NewReliable(b, cfg)
	cli := NewReliable(a, fastRel())
	defer srv.Close()
	defer cli.Close()
	if err := cli.Send(one(Message{Kind: KindInit, Time: 0})); err != nil {
		t.Fatal(err)
	}
	if m, err := recvOne(t, srv); err != nil || m.Kind != KindInit {
		t.Fatalf("server got %v, %v", m, err)
	}
	if err := srv.Send(one(Message{Kind: KindSync, Time: sim.Microsecond})); err != nil {
		t.Fatal(err)
	}
	if m, err := recvOne(t, cli); err != nil || m.Kind != KindSync {
		t.Fatalf("client got %v, %v", m, err)
	}
	if st := cli.Stats(); st.Sent != 1 {
		t.Errorf("client stats %+v, want one enveloped send", st)
	}
	if st := srv.Stats(); st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("server stats %+v, want envelope mode engaged", st)
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
