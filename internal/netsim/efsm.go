package netsim

import (
	"fmt"
)

// This file implements the process domain: behaviour expressed as
// communicating extended finite state machines, OPNET's process model.
// An EFSM has named states (forced or unforced), transitions guarded by
// conditions over the interrupt and the machine's extended state
// variables, and executive actions. Unforced states block until the next
// interrupt; forced states evaluate their outgoing transitions immediately,
// exactly like OPNET's green (unforced) and red (forced) states.

// InterruptKind discriminates what woke the machine up.
type InterruptKind int

// Interrupt kinds, mirroring OPNET's begin-simulation, stream and self
// interrupts.
const (
	IntrBegin InterruptKind = iota
	IntrArrival
	IntrTimer
)

// String names the interrupt kind.
func (k InterruptKind) String() string {
	switch k {
	case IntrBegin:
		return "begin"
	case IntrArrival:
		return "arrival"
	case IntrTimer:
		return "timer"
	default:
		return "?"
	}
}

// Interrupt carries the wake-up cause into guards and actions.
type Interrupt struct {
	Kind InterruptKind
	Pkt  *Packet     // arrival interrupts
	Port int         // arrival interrupts
	Tag  interface{} // timer interrupts
}

// EFSM is an extended finite state machine usable as a node Processor.
type EFSM struct {
	name    string
	states  map[string]*stateDef
	order   []string
	current string
	started bool

	// Vars are the extended state variables. Guards and actions may read
	// and write them freely.
	Vars map[string]interface{}

	// Trace, when set, receives a line per transition taken (debugging).
	Trace func(from, to string, intr Interrupt)

	transitions uint64
}

type stateDef struct {
	name   string
	forced bool
	enter  func(ctx *Ctx, m *EFSM)
	trans  []*transition
}

type transition struct {
	to     string
	guard  func(ctx *Ctx, m *EFSM, intr Interrupt) bool
	action func(ctx *Ctx, m *EFSM, intr Interrupt)
}

// NewEFSM creates a machine; the first state added becomes the initial
// state.
func NewEFSM(name string) *EFSM {
	return &EFSM{name: name, states: make(map[string]*stateDef), Vars: make(map[string]interface{})}
}

// Current returns the current state name.
func (m *EFSM) Current() string { return m.current }

// State declares an unforced (waiting) state. enter, if non-nil, runs on
// entry.
func (m *EFSM) State(name string, enter func(ctx *Ctx, m *EFSM)) *EFSM {
	return m.addState(name, false, enter)
}

func (m *EFSM) addState(name string, forced bool, enter func(ctx *Ctx, m *EFSM)) *EFSM {
	if _, dup := m.states[name]; dup {
		panic(fmt.Sprintf("netsim: EFSM %q: duplicate state %q", m.name, name))
	}
	m.states[name] = &stateDef{name: name, forced: forced, enter: enter}
	m.order = append(m.order, name)
	if m.current == "" {
		m.current = name
	}
	return m
}

// Transition declares an edge from state from to state to. A nil guard is
// always true; a nil action does nothing. Transitions are evaluated in
// declaration order and the first enabled one fires.
func (m *EFSM) Transition(from, to string,
	guard func(ctx *Ctx, m *EFSM, intr Interrupt) bool,
	action func(ctx *Ctx, m *EFSM, intr Interrupt)) *EFSM {
	sf, ok := m.states[from]
	if !ok {
		panic(fmt.Sprintf("netsim: EFSM %q: transition from unknown state %q", m.name, from))
	}
	if _, ok := m.states[to]; !ok {
		panic(fmt.Sprintf("netsim: EFSM %q: transition to unknown state %q", m.name, to))
	}
	sf.trans = append(sf.trans, &transition{to: to, guard: guard, action: action})
	return m
}

// Init implements Processor: delivers the begin interrupt.
func (m *EFSM) Init(ctx *Ctx) {
	if m.current == "" {
		panic(fmt.Sprintf("netsim: EFSM %q has no states", m.name))
	}
	m.started = true
	st := m.states[m.current]
	if st.enter != nil {
		st.enter(ctx, m)
	}
	m.dispatch(ctx, Interrupt{Kind: IntrBegin})
}

// Arrival implements Processor.
func (m *EFSM) Arrival(ctx *Ctx, pkt *Packet, port int) {
	m.dispatch(ctx, Interrupt{Kind: IntrArrival, Pkt: pkt, Port: port})
}

// Timer implements Processor.
func (m *EFSM) Timer(ctx *Ctx, tag interface{}) {
	m.dispatch(ctx, Interrupt{Kind: IntrTimer, Tag: tag})
}

// dispatch evaluates transitions from the current state for the interrupt,
// then chases forced states to quiescence.
func (m *EFSM) dispatch(ctx *Ctx, intr Interrupt) {
	if !m.started {
		panic(fmt.Sprintf("netsim: EFSM %q: interrupt before Init", m.name))
	}
	m.step(ctx, intr)
	// Forced states evaluate immediately with the same interrupt context
	// until an unforced state is reached. Guard against forced-state
	// cycles.
	for hops := 0; m.states[m.current].forced; hops++ {
		if hops > 1000 {
			panic(fmt.Sprintf("netsim: EFSM %q: forced-state loop at %q", m.name, m.current))
		}
		if !m.step(ctx, intr) {
			panic(fmt.Sprintf("netsim: EFSM %q: forced state %q has no enabled transition", m.name, m.current))
		}
	}
}

// step fires at most one transition and reports whether one fired.
func (m *EFSM) step(ctx *Ctx, intr Interrupt) bool {
	st := m.states[m.current]
	for _, tr := range st.trans {
		if tr.guard != nil && !tr.guard(ctx, m, intr) {
			continue
		}
		if m.Trace != nil {
			m.Trace(st.name, tr.to, intr)
		}
		if tr.action != nil {
			tr.action(ctx, m, intr)
		}
		m.transitions++
		m.current = tr.to
		if next := m.states[tr.to]; next.enter != nil {
			next.enter(ctx, m)
		}
		return true
	}
	return false
}
