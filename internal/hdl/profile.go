package hdl

import (
	"sort"
	"sync/atomic"

	"castanet/internal/obs"
)

// ActivityProfile attributes kernel work to individual signals and
// processes: per-signal event counts with a two-state purity classifier
// (transitions whose old and new values are pure forcing 0/1 — the ones
// the packed data plane commits as words) and per-process run
// counts with delta-cycle attribution (runs in follow-on deltas of an
// instant, i.e. delta churn).
//
// The hot path mirrors the kernel's own counter discipline: plain uint64
// accumulators indexed by creation-order ID, written only by the
// simulation goroutine, with a single nil pointer test when profiling is
// disabled. At every Step boundary the accumulators are published
// diff-style into an atomically swapped table (only changed entries are
// stored), so concurrent readers — the /profile endpoint — snapshot a
// consistent view without touching the per-delta loop.
type ActivityProfile struct {
	sim *Simulator

	// Hot-path accumulators, indexed by signal/process ID.
	sigEvents []uint64
	sigTwo    []uint64
	procRuns  []uint64
	procDelta []uint64

	pub atomic.Pointer[activityPub]
}

// activityPub is the published table: entry names captured at publish
// time, counts as atomics so readers race-freely observe the last Step
// boundary's state.
type activityPub struct {
	sigNames  []string
	sigWidths []int
	sigEvents []atomic.Uint64
	sigTwo    []atomic.Uint64

	procNames []string
	procRuns  []atomic.Uint64
	procDelta []atomic.Uint64
}

// EnableProfile attaches an activity profiler to the simulator (or returns
// the one already attached) and sizes it for the signals and processes
// elaborated so far; later Signal/Process calls grow it automatically.
func (s *Simulator) EnableProfile() *ActivityProfile {
	if s.prof == nil {
		s.prof = &ActivityProfile{
			sim:       s,
			sigEvents: make([]uint64, len(s.signals)),
			sigTwo:    make([]uint64, len(s.signals)),
			procRuns:  make([]uint64, len(s.processes)),
			procDelta: make([]uint64, len(s.processes)),
		}
		s.prof.publish()
	}
	return s.prof
}

// growSignal extends the per-signal accumulators for one new signal.
func (p *ActivityProfile) growSignal() {
	if p == nil {
		return
	}
	p.sigEvents = append(p.sigEvents, 0)
	p.sigTwo = append(p.sigTwo, 0)
}

// growProcess extends the per-process accumulators for one new process.
func (p *ActivityProfile) growProcess() {
	if p == nil {
		return
	}
	p.procRuns = append(p.procRuns, 0)
	p.procDelta = append(p.procDelta, 0)
}

// publish copies the hot accumulators into the published table. Called at
// Step boundaries by the simulation goroutine (single writer); only
// entries that changed since the last publish are stored, so a quiescent
// design costs a compare per entry.
func (p *ActivityProfile) publish() {
	if p == nil {
		return
	}
	t := p.pub.Load()
	if t == nil || len(t.sigNames) != len(p.sigEvents) || len(t.procNames) != len(p.procRuns) {
		t = p.rebuildPub()
	}
	for i, v := range p.sigEvents {
		if t.sigEvents[i].Load() != v {
			t.sigEvents[i].Store(v)
			t.sigTwo[i].Store(p.sigTwo[i])
		}
	}
	for i, v := range p.procRuns {
		if t.procRuns[i].Load() != v {
			t.procRuns[i].Store(v)
			t.procDelta[i].Store(p.procDelta[i])
		}
	}
}

// rebuildPub builds and swaps in a published table matching the current
// elaboration (new signals or processes appeared since the last rebuild).
func (p *ActivityProfile) rebuildPub() *activityPub {
	t := &activityPub{
		sigNames:  make([]string, len(p.sigEvents)),
		sigWidths: make([]int, len(p.sigEvents)),
		sigEvents: make([]atomic.Uint64, len(p.sigEvents)),
		sigTwo:    make([]atomic.Uint64, len(p.sigEvents)),
		procNames: make([]string, len(p.procRuns)),
		procRuns:  make([]atomic.Uint64, len(p.procRuns)),
		procDelta: make([]atomic.Uint64, len(p.procRuns)),
	}
	for i := range t.sigNames {
		t.sigNames[i] = p.sim.signals[i].name
		t.sigWidths[i] = p.sim.signals[i].width
	}
	for i := range t.procNames {
		t.procNames[i] = p.sim.processes[i].name
	}
	p.pub.Store(t)
	return t
}

// Snapshot returns the activity state as of the last Step boundary,
// entries sorted by name with duplicates collapsed. Safe to call
// concurrently with the simulation; a nil profiler snapshots empty.
func (p *ActivityProfile) Snapshot() obs.ActivitySnap {
	if p == nil {
		return obs.ActivitySnap{}
	}
	t := p.pub.Load()
	if t == nil {
		return obs.ActivitySnap{}
	}
	snap := obs.ActivitySnap{
		Signals:   make([]obs.SignalActivity, len(t.sigNames)),
		Processes: make([]obs.ProcessActivity, len(t.procNames)),
	}
	for i := range t.sigNames {
		snap.Signals[i] = obs.SignalActivity{
			Name:     t.sigNames[i],
			Width:    t.sigWidths[i],
			Events:   t.sigEvents[i].Load(),
			TwoState: t.sigTwo[i].Load(),
		}
	}
	for i := range t.procNames {
		snap.Processes[i] = obs.ProcessActivity{
			Name:      t.procNames[i],
			Runs:      t.procRuns[i].Load(),
			DeltaRuns: t.procDelta[i].Load(),
		}
	}
	sort.Slice(snap.Signals, func(i, j int) bool { return snap.Signals[i].Name < snap.Signals[j].Name })
	sort.Slice(snap.Processes, func(i, j int) bool { return snap.Processes[i].Name < snap.Processes[j].Name })
	snap.Signals = collapseSignals(snap.Signals)
	snap.Processes = collapseProcesses(snap.Processes)
	return snap
}

// collapseSignals sums adjacent same-name entries so the snapshot keys
// cleanly by name (the invariant obs.MergeActivity relies on) even if a
// design reuses a signal name.
func collapseSignals(in []obs.SignalActivity) []obs.SignalActivity {
	out := in[:0]
	for _, s := range in {
		if n := len(out); n > 0 && out[n-1].Name == s.Name {
			out[n-1].Events += s.Events
			out[n-1].TwoState += s.TwoState
			continue
		}
		out = append(out, s)
	}
	return out
}

func collapseProcesses(in []obs.ProcessActivity) []obs.ProcessActivity {
	out := in[:0]
	for _, p := range in {
		if n := len(out); n > 0 && out[n-1].Name == p.Name {
			out[n-1].Runs += p.Runs
			out[n-1].DeltaRuns += p.DeltaRuns
			continue
		}
		out = append(out, p)
	}
	return out
}
