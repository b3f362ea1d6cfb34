package netsim

import (
	"testing"

	"castanet/internal/sim"
)

// buildOnOff builds the classic ON/OFF traffic EFSM: in ON it emits a
// packet every cellTime and may fall back to OFF; a timer in OFF returns
// to ON.
func buildOnOff() *EFSM {
	m := NewEFSM("onoff")
	const burst = 5
	m.State("off", nil)
	m.State("on", nil)
	m.Transition("off", "on",
		func(ctx *Ctx, m *EFSM, intr Interrupt) bool { return intr.Kind == IntrBegin || intr.Kind == IntrTimer },
		func(ctx *Ctx, m *EFSM, intr Interrupt) {
			m.Vars["left"] = burst
			ctx.SetTimer(sim.Microsecond, "emit")
		})
	m.Transition("on", "on",
		func(ctx *Ctx, m *EFSM, intr Interrupt) bool {
			return intr.Kind == IntrTimer && m.Vars["left"].(int) > 1
		},
		func(ctx *Ctx, m *EFSM, intr Interrupt) {
			ctx.Send(ctx.Net().NewPacket("cell", nil, 424), 0)
			m.Vars["left"] = m.Vars["left"].(int) - 1
			ctx.SetTimer(sim.Microsecond, "emit")
		})
	m.Transition("on", "off",
		func(ctx *Ctx, m *EFSM, intr Interrupt) bool {
			return intr.Kind == IntrTimer && m.Vars["left"].(int) == 1
		},
		func(ctx *Ctx, m *EFSM, intr Interrupt) {
			ctx.Send(ctx.Net().NewPacket("cell", nil, 424), 0)
			ctx.SetTimer(10*sim.Microsecond, "wake")
		})
	return m
}

func TestEFSMOnOff(t *testing.T) {
	n := New(1)
	m := buildOnOff()
	sink := &Sink{}
	a := n.Node("src", m)
	b := n.Node("sink", sink)
	n.Connect(a, 0, b, 0, LinkParams{})
	n.Run(100 * sim.Microsecond)
	if m.Current() != "on" && m.Current() != "off" {
		t.Fatalf("current = %q", m.Current())
	}
	if sink.Received == 0 {
		t.Fatal("ON/OFF machine emitted nothing")
	}
	// Bursts of exactly 5: total must be a multiple of 5 once back in off.
	if m.Current() == "off" && sink.Received%5 != 0 {
		t.Errorf("received %d not a multiple of burst 5", sink.Received)
	}
	if m.Transitions() == 0 {
		t.Error("no transitions counted")
	}
}

func TestEFSMForcedState(t *testing.T) {
	// begin -> forced "decide" -> "done": the forced state is traversed
	// immediately without an extra interrupt.
	n := New(1)
	m := NewEFSM("f")
	visited := []string{}
	m.State("init", nil)
	m.ForcedState("decide", func(ctx *Ctx, m *EFSM) { visited = append(visited, "decide") })
	m.State("done", func(ctx *Ctx, m *EFSM) { visited = append(visited, "done") })
	m.Transition("init", "decide", nil, nil)
	m.Transition("decide", "done", nil, nil)
	n.Node("n", m)
	n.Run(sim.Microsecond)
	if m.Current() != "done" {
		t.Fatalf("current = %q, want done", m.Current())
	}
	if len(visited) != 2 || visited[0] != "decide" || visited[1] != "done" {
		t.Fatalf("visited = %v", visited)
	}
}

func TestEFSMGuardOrder(t *testing.T) {
	// First enabled transition wins, in declaration order.
	n := New(1)
	m := NewEFSM("g")
	m.State("s", nil)
	m.State("a", nil)
	m.State("b", nil)
	m.Transition("s", "a", func(ctx *Ctx, m *EFSM, i Interrupt) bool { return true }, nil)
	m.Transition("s", "b", func(ctx *Ctx, m *EFSM, i Interrupt) bool { return true }, nil)
	n.Node("n", m)
	n.Run(sim.Microsecond)
	if m.Current() != "a" {
		t.Fatalf("current = %q, want a (declaration order)", m.Current())
	}
}

func TestEFSMNoEnabledTransitionStays(t *testing.T) {
	n := New(1)
	m := NewEFSM("stay")
	m.State("s", nil)
	m.State("t", nil)
	m.Transition("s", "t", func(ctx *Ctx, m *EFSM, i Interrupt) bool { return false }, nil)
	n.Node("n", m)
	n.Run(sim.Microsecond)
	if m.Current() != "s" {
		t.Fatalf("machine moved to %q with no enabled transition", m.Current())
	}
}

func TestEFSMUnknownStatePanics(t *testing.T) {
	m := NewEFSM("x")
	m.State("s", nil)
	defer func() {
		if recover() == nil {
			t.Error("transition to unknown state did not panic")
		}
	}()
	m.Transition("s", "nope", nil, nil)
}

func TestEFSMForcedLoopDetected(t *testing.T) {
	n := New(1)
	m := NewEFSM("loop")
	m.ForcedState("a", nil)
	m.ForcedState("b", nil)
	m.Transition("a", "b", nil, nil)
	m.Transition("b", "a", nil, nil)
	n.Node("n", m)
	defer func() {
		if recover() == nil {
			t.Error("forced-state loop not detected")
		}
	}()
	n.Run(sim.Microsecond)
}
