package netsim

import "castanet/internal/sim"

// This file provides the statistic probes of the network simulation
// environment — the paper's "access to powerful analysis capabilities
// available in existing network simulation tools for the representation
// of errors and results". A probe collects a named scalar statistic as
// a streaming summary and, optionally, a bounded time series.

// Probe collects one named statistic.
type Probe struct {
	Name string

	// Capture bounds the stored time series; 0 keeps summary statistics
	// only.
	Capture int

	acc    sim.Accumulator
	series []Sample
}

// Sample is one time-series point.
type Sample struct {
	At    sim.Time
	Value float64
}

// Record adds an observation at the given time.
func (p *Probe) Record(at sim.Time, v float64) {
	p.acc.Add(v)
	if p.Capture > 0 && len(p.series) < p.Capture {
		p.series = append(p.series, Sample{At: at, Value: v})
	}
}

// Stats returns the streaming summary.
func (p *Probe) Stats() *sim.Accumulator { return &p.acc }

// ProbeSet is a named collection of probes for one simulation study.
type ProbeSet struct {
	probes map[string]*Probe
	order  []string
}

// NewProbeSet returns an empty set.
func NewProbeSet() *ProbeSet { return &ProbeSet{probes: make(map[string]*Probe)} }

// Get returns (creating if needed) the probe with the given name.
func (s *ProbeSet) Get(name string) *Probe {
	if p, ok := s.probes[name]; ok {
		return p
	}
	p := &Probe{Name: name}
	s.probes[name] = p
	s.order = append(s.order, name)
	return p
}

// InstrumentSink attaches delay and size probes to a sink: every absorbed
// packet records its end-to-end delay (seconds) and size (bits).
func InstrumentSink(s *Sink, set *ProbeSet, prefix string) {
	delay := set.Get(prefix + ".delay")
	size := set.Get(prefix + ".size")
	prev := s.OnPacket
	s.OnPacket = func(ctx *Ctx, pkt *Packet, port int) {
		delay.Record(ctx.Now(), (ctx.Now() - pkt.Created).Seconds())
		size.Record(ctx.Now(), float64(pkt.Size))
		if prev != nil {
			prev(ctx, pkt, port)
		}
	}
}
