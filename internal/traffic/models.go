// Package traffic provides the traffic-model library of the network
// simulation environment: stochastic source models (CBR, Poisson, ON/OFF,
// MMPP) and simulated real-world traces (an MPEG video model plus trace
// file I/O), mirroring the OPNET model suite the paper selects for its ATM
// test benches. Every model is an interval generator: Next returns the
// delay from the previous emission to the next one, drawing randomness
// only from the supplied RNG so runs are reproducible.
package traffic

import (
	"fmt"
	"math"

	"castanet/internal/sim"
)

// Model is the interval-generator contract (identical to
// netsim.Generator, restated here on the producer side).
type Model interface {
	Next(rng *sim.RNG) sim.Duration
}

// CBR is a constant bit rate source: one cell every Interval.
type CBR struct {
	Interval sim.Duration
}

// NewCBR returns a CBR source emitting at the given cell rate.
func NewCBR(cellsPerSecond float64) *CBR {
	return &CBR{Interval: sim.FromSeconds(1 / cellsPerSecond)}
}

// Next implements Model.
func (c *CBR) Next(*sim.RNG) sim.Duration { return c.Interval }

// Poisson emits with exponentially distributed inter-arrival times.
type Poisson struct {
	Mean sim.Duration // mean inter-arrival time
}

// NewPoisson returns a Poisson source with the given mean cell rate.
func NewPoisson(cellsPerSecond float64) *Poisson {
	return &Poisson{Mean: sim.FromSeconds(1 / cellsPerSecond)}
}

// Next implements Model.
func (p *Poisson) Next(rng *sim.RNG) sim.Duration {
	return sim.Duration(rng.Exp(float64(p.Mean)))
}

// OnOff is an interrupted periodic process: during ON it emits cells at
// PeakInterval; ON and OFF period lengths are exponentially distributed.
// It is the standard model for bursty ATM sources (voice with silence
// suppression, interactive data).
type OnOff struct {
	PeakInterval sim.Duration // cell spacing while ON
	MeanOn       sim.Duration // mean ON duration
	MeanOff      sim.Duration // mean OFF duration

	onLeft sim.Duration // remaining ON time, <=0 when in OFF
	primed bool
}

// Next implements Model.
func (o *OnOff) Next(rng *sim.RNG) sim.Duration {
	if !o.primed {
		o.primed = true
		o.onLeft = sim.Duration(rng.Exp(float64(o.MeanOn)))
	}
	var gap sim.Duration
	for {
		if o.onLeft >= o.PeakInterval {
			// Still ON: next cell one peak interval later.
			o.onLeft -= o.PeakInterval
			return gap + o.PeakInterval
		}
		// The ON period ends before the next emission: idle through the
		// ON tail plus an OFF period, then start a fresh ON period whose
		// first cell is due one peak interval after it begins.
		gap += o.onLeft + sim.Duration(rng.Exp(float64(o.MeanOff)))
		o.onLeft = sim.Duration(rng.Exp(float64(o.MeanOn)))
	}
}

// MMPP2 is a two-state Markov-modulated Poisson process: the cell rate
// switches between Rate1 and Rate2 with exponentially distributed
// sojourn times — a common model for aggregated bursty ATM traffic.
type MMPP2 struct {
	Rate1, Rate2       float64      // cells/s in each state
	Sojourn1, Sojourn2 sim.Duration // mean state holding times

	state2 bool
	stLeft sim.Duration
	primed bool
}

// Next implements Model.
func (m *MMPP2) Next(rng *sim.RNG) sim.Duration {
	if !m.primed {
		m.primed = true
		m.stLeft = sim.Duration(rng.Exp(float64(m.Sojourn1)))
	}
	var total sim.Duration
	for {
		rate, sojourn := m.Rate1, m.Sojourn1
		if m.state2 {
			rate, sojourn = m.Rate2, m.Sojourn2
		}
		gap := sim.Duration(rng.Exp(float64(sim.Second) / rate))
		if gap <= m.stLeft {
			m.stLeft -= gap
			return total + gap
		}
		// State changes before the arrival; memorylessness lets us
		// discard the partial draw and redraw in the new state.
		total += m.stLeft
		m.state2 = !m.state2
		_ = sojourn
		next := m.Sojourn1
		if m.state2 {
			next = m.Sojourn2
		}
		m.stLeft = sim.Duration(rng.Exp(float64(next)))
	}
}

// Trace replays a recorded inter-arrival sequence, wrapping around at the
// end — the "simulated/real-world traces" stimulus category of Fig. 1.
type Trace struct {
	Intervals []sim.Duration
	pos       int
}

// Next implements Model.
func (t *Trace) Next(*sim.RNG) sim.Duration {
	if len(t.Intervals) == 0 {
		panic("traffic: empty trace")
	}
	d := t.Intervals[t.pos]
	t.pos = (t.pos + 1) % len(t.Intervals)
	return d
}

// Superposition merges several models into one aggregate arrival stream,
// as when multiplexing many sources onto one ATM link.
type Superposition struct {
	Models []Model

	nexts  []sim.Duration
	primed bool
}

// Next implements Model.
func (s *Superposition) Next(rng *sim.RNG) sim.Duration {
	if len(s.Models) == 0 {
		panic("traffic: empty superposition")
	}
	if !s.primed {
		s.primed = true
		s.nexts = make([]sim.Duration, len(s.Models))
		for i, m := range s.Models {
			s.nexts[i] = m.Next(rng)
		}
	}
	// Find the earliest pending arrival.
	min := 0
	for i := 1; i < len(s.nexts); i++ {
		if s.nexts[i] < s.nexts[min] {
			min = i
		}
	}
	gap := s.nexts[min]
	for i := range s.nexts {
		s.nexts[i] -= gap
	}
	s.nexts[min] = s.Models[min].Next(rng)
	return gap
}

// Validate sanity-checks model parameters; harnesses call it before long
// runs so misconfigurations fail fast.
func Validate(m Model) error {
	switch v := m.(type) {
	case *CBR:
		if v.Interval <= 0 {
			return fmt.Errorf("traffic: CBR interval %v must be positive", v.Interval)
		}
	case *Poisson:
		if v.Mean <= 0 {
			return fmt.Errorf("traffic: Poisson mean %v must be positive", v.Mean)
		}
	case *OnOff:
		if v.PeakInterval <= 0 || v.MeanOn <= 0 || v.MeanOff <= 0 {
			return fmt.Errorf("traffic: OnOff parameters must be positive")
		}
	case *MMPP2:
		if v.Rate1 <= 0 || v.Rate2 <= 0 || v.Sojourn1 <= 0 || v.Sojourn2 <= 0 {
			return fmt.Errorf("traffic: MMPP2 parameters must be positive")
		}
	case *Trace:
		if len(v.Intervals) == 0 {
			return fmt.Errorf("traffic: trace is empty")
		}
		for i, d := range v.Intervals {
			if d < 0 {
				return fmt.Errorf("traffic: trace interval %d is negative", i)
			}
		}
	case *Superposition:
		if len(v.Models) == 0 {
			return fmt.Errorf("traffic: superposition is empty")
		}
		for _, sub := range v.Models {
			if err := Validate(sub); err != nil {
				return err
			}
		}
	case *ParetoOnOff:
		if v.PeakInterval <= 0 || v.MeanOn <= 0 || v.MeanOff <= 0 {
			return fmt.Errorf("traffic: ParetoOnOff durations must be positive")
		}
		if v.Alpha <= 1 {
			return fmt.Errorf("traffic: Pareto alpha %v must exceed 1", v.Alpha)
		}
	}
	return nil
}

// ParetoOnOff is an ON/OFF source whose period lengths follow a Pareto
// (heavy-tailed) distribution instead of the exponential — the standard
// construction for self-similar aggregate traffic in ATM studies (Willinger
// et al.): superposing many Pareto ON/OFF sources yields long-range
// dependent load that exponential models cannot reproduce.
type ParetoOnOff struct {
	PeakInterval sim.Duration // cell spacing while ON
	MeanOn       sim.Duration
	MeanOff      sim.Duration
	// Alpha is the Pareto shape parameter, 1 < Alpha <= 2 for infinite
	// variance (self-similarity); typical literature value 1.5.
	Alpha float64

	onLeft sim.Duration
	primed bool
}

// pareto draws a Pareto variate with the given mean and shape alpha > 1:
// scale = mean*(alpha-1)/alpha.
func pareto(rng *sim.RNG, mean sim.Duration, alpha float64) sim.Duration {
	scale := float64(mean) * (alpha - 1) / alpha
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	v := scale / math.Pow(u, 1/alpha)
	// Heavy tails can exceed any horizon; clamp at 10^4 means to keep
	// simulated runs finite while preserving burstiness.
	if limit := 10000 * float64(mean); v > limit {
		v = limit
	}
	return sim.Duration(v)
}

// Next implements Model.
func (o *ParetoOnOff) Next(rng *sim.RNG) sim.Duration {
	if o.Alpha <= 1 {
		panic("traffic: Pareto alpha must exceed 1")
	}
	if !o.primed {
		o.primed = true
		o.onLeft = pareto(rng, o.MeanOn, o.Alpha)
	}
	var gap sim.Duration
	for {
		if o.onLeft >= o.PeakInterval {
			o.onLeft -= o.PeakInterval
			return gap + o.PeakInterval
		}
		gap += o.onLeft + pareto(rng, o.MeanOff, o.Alpha)
		o.onLeft = pareto(rng, o.MeanOn, o.Alpha)
	}
}
