package ipc

import (
	"bytes"
	"testing"

	"castanet/internal/sim"
)

func msg(i int) Message {
	return Message{Kind: KindUser, Time: sim.Time(i+1) * sim.Microsecond, Data: []byte{byte(i), byte(i >> 8), 0x5A}}
}

// faultDeliveries pushes n units of one through a fault transport and
// then closes it, returning every message the far pipe end yields.
func faultDeliveries(t *testing.T, cfg FaultConfig, n int) []Message {
	t.Helper()
	a, b := Pipe(2 * n)
	ft := NewFault(a, cfg)
	for i := 0; i < n; i++ {
		if err := ft.Send(one(msg(i))); err != nil {
			t.Fatal(err)
		}
	}
	ft.Close()
	var out []Message
	for {
		u, err := b.Recv()
		if err != nil {
			return out
		}
		out = append(out, u...)
	}
}

func TestFaultDropIsDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 99, Send: DirFaults{Drop: 0.3}}
	first := faultDeliveries(t, cfg, 200)
	second := faultDeliveries(t, cfg, 200)
	if len(first) != len(second) {
		t.Fatalf("same seed delivered %d then %d messages", len(first), len(second))
	}
	for i := range first {
		if first[i].Time != second[i].Time {
			t.Fatalf("delivery %d differs between identical runs", i)
		}
	}
	if len(first) == 200 || len(first) == 0 {
		t.Fatalf("drop rate 0.3 delivered %d of 200", len(first))
	}
	if len(first) < 100 || len(first) > 180 {
		t.Errorf("drop rate 0.3 delivered %d of 200, far off expectation", len(first))
	}
}

func TestFaultCorruptClonesPayload(t *testing.T) {
	a, b := Pipe(4)
	ft := NewFault(a, FaultConfig{Seed: 1, Send: DirFaults{Corrupt: 1.0}})
	orig := []byte{1, 2, 3, 4}
	keep := append([]byte(nil), orig...)
	if err := ft.Send(one(Message{Kind: KindUser, Data: orig})); err != nil {
		t.Fatal(err)
	}
	got, err := recvOne(t, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, keep) {
		t.Error("sender's buffer was mutated by corruption")
	}
	if bytes.Equal(got.Data, keep) {
		t.Error("payload not corrupted at rate 1.0")
	}
	if st := ft.Stats(); st.Corrupted != 1 {
		t.Errorf("Corrupted = %d", st.Corrupted)
	}
}

func TestFaultDuplicate(t *testing.T) {
	got := faultDeliveries(t, FaultConfig{Seed: 7, Send: DirFaults{Dup: 1.0}}, 5)
	if len(got) != 10 {
		t.Fatalf("delivered %d, want every message twice", len(got))
	}
}

func TestFaultDelayReorders(t *testing.T) {
	// Delay rate 0.5 with traffic behind it: everything is still delivered
	// (held frames flush on later operations and at Close), possibly out
	// of order.
	got := faultDeliveries(t, FaultConfig{Seed: 3, Send: DirFaults{Delay: 0.5, DelaySlots: 3}}, 50)
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	seen := map[sim.Time]bool{}
	inOrder := true
	var last sim.Time
	for _, m := range got {
		if seen[m.Time] {
			t.Fatalf("duplicate delivery at %v", m.Time)
		}
		seen[m.Time] = true
		if m.Time < last {
			inOrder = false
		}
		last = m.Time
	}
	if inOrder {
		t.Error("delay rate 0.5 never reordered 50 messages")
	}
}

func TestFaultPartitionWindow(t *testing.T) {
	cfg := FaultConfig{Seed: 5, Send: DirFaults{PartitionAfter: 10}}
	got := faultDeliveries(t, cfg, 50)
	// Ops 1..10 pass; from op 11 on the direction is severed for good.
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10 before the partition", len(got))
	}
	if got[9].Time != msg(9).Time {
		t.Errorf("partition misplaced: last delivery %v", got[9].Time)
	}
}

func TestFaultRecvDirection(t *testing.T) {
	a, b := Pipe(64)
	ft := NewFault(a, FaultConfig{Seed: 11, Recv: DirFaults{Drop: 0.5}})
	for i := 0; i < 40; i++ {
		if err := b.Send(one(msg(i))); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	var n int
	for {
		if _, err := ft.Recv(); err != nil {
			break
		}
		n++
	}
	if n == 0 || n == 40 {
		t.Fatalf("recv-side drop 0.5 delivered %d of 40", n)
	}
	if st := ft.Stats(); st.Dropped == 0 {
		t.Error("no drops counted on recv side")
	}
}
