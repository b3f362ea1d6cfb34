package ipc

import (
	"sync"

	"castanet/internal/obs"
	"castanet/internal/sim"
)

// DirFaults configures the fault processes of one link direction. Rates
// are probabilities per unit (one frame on the wire), drawn
// from the transport's seeded RNG, so a given (seed, traffic) pair always
// produces the same fault pattern — channel-fault campaigns are
// reproducible the same way device-fault campaigns are.
type DirFaults struct {
	// Drop is the probability a unit is silently discarded. A dropped
	// unit loses every message at once, exactly like a lost frame on the
	// wire.
	Drop float64
	// Dup is the probability a unit is delivered twice.
	Dup float64
	// Corrupt is the probability one payload bit is flipped in one
	// randomly chosen message of the unit. The corrupted copy is a
	// clone; the sender's buffer (and hence any retransmission) is never
	// touched.
	Corrupt float64
	// Delay is the probability a unit is held back and released after
	// 1..DelaySlots later operations on the same direction — deterministic
	// reordering measured in operations, not wall-clock.
	Delay float64
	// DelaySlots bounds the hold-back (default 4 when Delay > 0).
	DelaySlots int
	// PartitionAfter severs this direction for good once that many
	// operations have occurred on it; 0 means never. From then on every
	// unit is swallowed.
	PartitionAfter uint64
}

// FaultConfig configures a FaultTransport. Send and Recv directions are
// independent: an asymmetric link (requests pass, responses vanish) is a
// distinct, and nastier, failure mode than a symmetric one.
type FaultConfig struct {
	Seed uint64
	Send DirFaults
	Recv DirFaults
}

// FaultStats counts injected faults, for campaign reporting. Each count
// is per fault event: one dropped unit is one Dropped, however many
// messages it carried.
type FaultStats struct {
	Dropped     uint64
	Duplicated  uint64
	Corrupted   uint64
	Delayed     uint64
	Partitioned uint64
}

// faultObs mirrors FaultStats into registry counters (nil handles until
// Instrument; obs counters are nil-safe).
type faultObs struct {
	dropped, duplicated, corrupted, delayed, partitioned *obs.Counter
}

// held is a delayed unit waiting for its release operation.
type held struct {
	u   []Message
	due uint64
}

// dirState is the per-direction fault machinery.
type dirState struct {
	cfg  DirFaults
	rng  *sim.RNG
	ops  uint64
	held []held
}

// FaultTransport wraps a Transport and injects link faults — unit drop,
// duplication, payload corruption, bounded delay/reorder, and partition —
// deterministically from a seeded RNG. It extends the fault philosophy of
// package faultsim from device defects to channel defects: the coupling
// link itself becomes a first-class failure domain. Faults act on wire
// units: a unit is dropped, duplicated, delayed or partitioned whole
// (that is how a frame fails on a real link), while corruption flips a
// bit inside one randomly chosen message.
type FaultTransport struct {
	inner Transport

	sendMu sync.Mutex
	send   dirState
	recvMu sync.Mutex
	recv   dirState

	statMu sync.Mutex
	stats  FaultStats
	obs    faultObs
}

// NewFault wraps inner with the given fault configuration. Distinct RNG
// streams drive the two directions so enabling a fault on one side does
// not perturb the pattern on the other.
func NewFault(inner Transport, cfg FaultConfig) *FaultTransport {
	root := sim.NewRNG(cfg.Seed)
	norm := func(d DirFaults) DirFaults {
		if d.Delay > 0 && d.DelaySlots <= 0 {
			d.DelaySlots = 4
		}
		return d
	}
	return &FaultTransport{
		inner: inner,
		send:  dirState{cfg: norm(cfg.Send), rng: root.Split()},
		recv:  dirState{cfg: norm(cfg.Recv), rng: root.Split()},
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultTransport) Stats() FaultStats {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	return f.stats
}

// Instrument routes the injected-fault counters into the registry under
// the given prefix (conventionally "ipc.fault"), in addition to the
// Stats() snapshot. A nil registry is a no-op; safe to call while traffic
// flows.
func (f *FaultTransport) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	o := faultObs{
		dropped:     reg.Counter(prefix + ".dropped"),
		duplicated:  reg.Counter(prefix + ".duplicated"),
		corrupted:   reg.Counter(prefix + ".corrupted"),
		delayed:     reg.Counter(prefix + ".delayed"),
		partitioned: reg.Counter(prefix + ".partitioned"),
	}
	f.statMu.Lock()
	f.obs = o
	f.statMu.Unlock()
}

// bump applies one counter update under the mutex and returns the current
// registry handles so call sites can mirror it, e.g.
// f.bump(...).dropped.Inc() — nil handles no-op until Instrument.
func (f *FaultTransport) bump(fn func(*FaultStats)) faultObs {
	f.statMu.Lock()
	fn(&f.stats)
	o := f.obs
	f.statMu.Unlock()
	return o
}

// cut reports whether the direction is partitioned at its current
// operation count.
func (s *dirState) cut() bool {
	return s.cfg.PartitionAfter > 0 && s.ops > s.cfg.PartitionAfter
}

// corrupt returns a copy of m with one payload bit flipped (or, for
// payload-less frames, the low bit of the time stamp — a silently wrong
// clock on an unprotected link).
func corrupt(m Message, rng *sim.RNG) Message {
	if len(m.Data) == 0 {
		m.Time ^= 1
		return m
	}
	data := append([]byte(nil), m.Data...)
	data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
	m.Data = data
	return m
}

// corruptUnit flips one bit in one randomly chosen message of u. The
// unit slice is owned by the fault machinery; the chosen message's
// payload is cloned before mutation.
func corruptUnit(u []Message, rng *sim.RNG) {
	i := 0
	if len(u) > 1 {
		i = rng.Intn(len(u))
	}
	u[i] = corrupt(u[i], rng)
}

// takeDue pops the first held unit whose release operation has come.
func (s *dirState) takeDue() ([]Message, bool) {
	for i, h := range s.held {
		if h.due <= s.ops {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return h.u, true
		}
	}
	return nil, false
}

// takeAny pops any held unit — the final drain when the link closes.
func (s *dirState) takeAny() ([]Message, bool) {
	if len(s.held) == 0 {
		return nil, false
	}
	u := s.held[0].u
	s.held = s.held[1:]
	return u, true
}

// Send implements Transport, running the outbound fault processes. The
// unit is copied first (it may sit in the delay line past the call), so
// the caller may reuse msgs.
func (f *FaultTransport) Send(msgs []Message) error {
	if len(msgs) == 0 {
		return errEmptyUnit
	}
	u := append([]Message(nil), msgs...)
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	s := &f.send
	s.ops++
	// Release delayed units whose slot has come before the new one, so a
	// held frame overtaken by later traffic appears reordered.
	for {
		h, ok := s.takeDue()
		if !ok {
			break
		}
		if err := f.inner.Send(h); err != nil {
			return err
		}
	}
	if s.cut() {
		f.bump(func(st *FaultStats) { st.Partitioned++ }).partitioned.Inc()
		return nil
	}
	c := s.cfg
	if c.Drop > 0 && s.rng.Bool(c.Drop) {
		f.bump(func(st *FaultStats) { st.Dropped++ }).dropped.Inc()
		return nil
	}
	if c.Corrupt > 0 && s.rng.Bool(c.Corrupt) {
		corruptUnit(u, s.rng)
		f.bump(func(st *FaultStats) { st.Corrupted++ }).corrupted.Inc()
	}
	if c.Delay > 0 && s.rng.Bool(c.Delay) {
		s.held = append(s.held, held{u: u, due: s.ops + 1 + uint64(s.rng.Intn(c.DelaySlots))})
		f.bump(func(st *FaultStats) { st.Delayed++ }).delayed.Inc()
		return nil
	}
	if err := f.inner.Send(u); err != nil {
		return err
	}
	if c.Dup > 0 && s.rng.Bool(c.Dup) {
		f.bump(func(st *FaultStats) { st.Duplicated++ }).duplicated.Inc()
		return f.inner.Send(u)
	}
	return nil
}

// Recv implements Transport: it reads the next unit from the wrapped
// transport and runs the inbound fault processes on it. A dropped inbound
// unit makes the read continue with the next one — from the caller's view
// it simply never arrived.
func (f *FaultTransport) Recv() ([]Message, error) {
	f.recvMu.Lock()
	defer f.recvMu.Unlock()
	s := &f.recv
	for {
		s.ops++
		if u, ok := s.takeDue(); ok {
			return u, nil
		}
		u, err := f.inner.Recv()
		if err != nil {
			// Drain delayed units before reporting closure, matching Pipe
			// semantics.
			if h, ok := s.takeAny(); ok {
				return h, nil
			}
			return nil, err
		}
		if s.cut() {
			f.bump(func(st *FaultStats) { st.Partitioned++ }).partitioned.Inc()
			continue
		}
		c := s.cfg
		if c.Drop > 0 && s.rng.Bool(c.Drop) {
			f.bump(func(st *FaultStats) { st.Dropped++ }).dropped.Inc()
			continue
		}
		if c.Corrupt > 0 && s.rng.Bool(c.Corrupt) {
			corruptUnit(u, s.rng)
			f.bump(func(st *FaultStats) { st.Corrupted++ }).corrupted.Inc()
		}
		if c.Delay > 0 && s.rng.Bool(c.Delay) {
			s.held = append(s.held, held{u: u, due: s.ops + 1 + uint64(s.rng.Intn(c.DelaySlots))})
			f.bump(func(st *FaultStats) { st.Delayed++ }).delayed.Inc()
			continue
		}
		if c.Dup > 0 && s.rng.Bool(c.Dup) {
			s.held = append(s.held, held{u: u, due: s.ops + 1})
			f.bump(func(st *FaultStats) { st.Duplicated++ }).duplicated.Inc()
		}
		return u, nil
	}
}

// Close implements Transport. Outbound units still sitting in the delay
// line are flushed first: delay is reordering, not loss.
func (f *FaultTransport) Close() error {
	f.sendMu.Lock()
	for {
		h, ok := f.send.takeAny()
		if !ok {
			break
		}
		if f.inner.Send(h) != nil {
			break
		}
	}
	f.sendMu.Unlock()
	return f.inner.Close()
}
