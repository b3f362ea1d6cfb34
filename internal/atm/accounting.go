package atm

import (
	"fmt"

	"castanet/internal/sim"
)

// This file implements the charging/accounting algorithm whose hardware
// implementation is the paper's case study ("We have used CASTANET for the
// functional verification of an ATM accounting unit", referencing the
// authors' charging-algorithm work [9]). The algorithm keeps per-connection
// usage counters and converts them to charging units with a volume tariff
// that weights cells by loss priority. Package refmodel wraps it as the
// algorithmic reference model; package dut implements the same function at
// the register-transfer level.

// UsageRecord is the per-connection accounting state.
type UsageRecord struct {
	VC        VC
	Cells     uint64 // total accepted cells
	CLP1Cells uint64 // low-priority cells (charged at a reduced rate)
	FirstSeen sim.Time
	LastSeen  sim.Time
}

// Tariff converts cell counts to charging units. Charging is volume based
// with a per-interval unit quantization: every full block of CellsPerUnit
// accepted cells costs one unit; CLP=1 cells count with half weight
// (two CLP1 cells consume one cell of volume).
type Tariff struct {
	CellsPerUnit uint64
}

// Units returns the number of charging units for the given counters.
func (t Tariff) Units(cells, clp1 uint64) uint64 {
	if t.CellsPerUnit == 0 {
		return 0
	}
	weighted := (cells-clp1)*2 + clp1 // CLP0 weight 2, CLP1 weight 1, denominator 2
	return weighted / (2 * t.CellsPerUnit)
}

// Accounting is the algorithmic accounting unit: it observes a cell
// stream and maintains usage records for registered connections.
type Accounting struct {
	tariff  Tariff
	records map[VC]*UsageRecord
	// Unregistered counts cells on connections without an installed
	// record; real hardware raises an exception to the control processor.
	Unregistered uint64
}

// NewAccounting returns an accounting unit with the given tariff.
func NewAccounting(t Tariff) *Accounting {
	return &Accounting{tariff: t, records: make(map[VC]*UsageRecord)}
}

// Register installs a connection to be metered.
func (a *Accounting) Register(vc VC) {
	if _, ok := a.records[vc]; !ok {
		a.records[vc] = &UsageRecord{VC: vc, FirstSeen: -1}
	}
}

// Observe meters one cell at time t. Idle cells are never charged.
func (a *Accounting) Observe(c *Cell, t sim.Time) {
	if c.IsIdle() || c.IsUnassigned() {
		return
	}
	r, ok := a.records[c.VC()]
	if !ok {
		a.Unregistered++
		return
	}
	if r.FirstSeen < 0 {
		r.FirstSeen = t
	}
	r.LastSeen = t
	r.Cells++
	if c.CLP == 1 {
		r.CLP1Cells++
	}
}

// Record returns the usage record for a connection.
func (a *Accounting) Record(vc VC) (UsageRecord, bool) {
	r, ok := a.records[vc]
	if !ok {
		return UsageRecord{}, false
	}
	return *r, true
}

// Units returns the charging units accumulated by a connection.
func (a *Accounting) Units(vc VC) uint64 {
	r, ok := a.records[vc]
	if !ok {
		return 0
	}
	return a.tariff.Units(r.Cells, r.CLP1Cells)
}

// String summarizes the accounting state.
func (a *Accounting) String() string {
	return fmt.Sprintf("accounting{%d connections, %d unregistered cells}",
		len(a.records), a.Unregistered)
}
