package atm

import (
	"sort"

	"castanet/internal/sim"
)

// Records returns all usage records sorted by connection for deterministic
// reports.
func (a *Accounting) Records() []UsageRecord {
	out := make([]UsageRecord, 0, len(a.records))
	for _, r := range a.records {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].VC.VPI != out[j].VC.VPI {
			return out[i].VC.VPI < out[j].VC.VPI
		}
		return out[i].VC.VCI < out[j].VC.VCI
	})
	return out
}

// Len returns the number of installed entries.
func (t *Translator) Len() int { return len(t.entries) }

// NewGCRA returns a policer for peak cell rate cellsPerSecond with the
// given tolerance.
func NewGCRA(cellsPerSecond float64, tau sim.Duration) *GCRA {
	return &GCRA{T: sim.FromSeconds(1 / cellsPerSecond), Tau: tau}
}
