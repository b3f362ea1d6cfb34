package atm

import (
	"sort"

	"castanet/internal/sim"
)

// GCRA is the Generic Cell Rate Algorithm (ITU-T I.371 virtual scheduling
// formulation) used for usage parameter control in the ATM traffic
// management functions the paper targets. Increment T is the nominal
// inter-cell interval, limit τ the permitted jitter.
type GCRA struct {
	T   sim.Duration // increment: nominal cell interval
	Tau sim.Duration // limit: cell delay variation tolerance

	tat     sim.Time // theoretical arrival time
	started bool

	Conforming    uint64
	NonConforming uint64
}

// Arrive processes a cell arriving at time t and reports whether it
// conforms. Non-conforming cells do not update the theoretical arrival
// time (they would be tagged or discarded by UPC hardware).
func (g *GCRA) Arrive(t sim.Time) bool {
	if !g.started {
		g.started = true
		g.tat = t + g.T
		g.Conforming++
		return true
	}
	if t < g.tat-g.Tau {
		g.NonConforming++
		return false
	}
	if t > g.tat {
		g.tat = t
	}
	g.tat += g.T
	g.Conforming++
	return true
}

// Translator is a VPI/VCI translation table as maintained by switch
// control software: incoming connection -> (outgoing port, new VPI/VCI).
type Translator struct {
	entries map[VC]Route
}

// Route is a translation result.
type Route struct {
	Port    int
	Out     VC
	Policer *GCRA // optional per-connection UPC
}

// NewTranslator returns an empty table.
func NewTranslator() *Translator { return &Translator{entries: make(map[VC]Route)} }

// Add installs a translation entry.
func (t *Translator) Add(in VC, r Route) { t.entries[in] = r }

// Remove deletes an entry.
func (t *Translator) Remove(in VC) { delete(t.entries, in) }

// Lookup resolves an incoming connection; ok is false for unknown VCs
// (cells on unknown connections are discarded by the hardware).
func (t *Translator) Lookup(in VC) (Route, bool) {
	r, ok := t.entries[in]
	return r, ok
}

// VCs returns all configured incoming connections sorted by (VPI, VCI).
// The order is deterministic so fault enumerations built from it (see
// faultsim.TableFaults) are pure functions of the table contents.
func (t *Translator) VCs() []VC {
	out := make([]VC, 0, len(t.entries))
	for vc := range t.entries {
		out = append(out, vc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VPI != out[j].VPI {
			return out[i].VPI < out[j].VPI
		}
		return out[i].VCI < out[j].VCI
	})
	return out
}
