// Package faultsim measures the quality of a co-verification test bench
// the way silicon teams measure test quality: by fault injection. Each
// run plants one defect in the device's connection table (a wrong output
// port, a flipped identifier bit, a lost entry — the failure modes of a
// corrupted on-chip CAM), reruns the unchanged network-level test bench
// against the faulty device, and records whether the comparison engine
// caught it. This package enumerates the faults, plants them and bins
// the outcomes; the campaign engine schedules the runs (the tablefaults
// matrix of internal/experiments, which E8 executes).
//
// Fault coverage quantifies the paper's central promise: test benches
// reused from the network level detect implementation defects — but only
// on connections the traffic actually exercises, which is exactly why
// test-bench construction (and its reuse across abstraction levels)
// matters.
package faultsim

import (
	"fmt"
	"strings"

	"castanet/internal/atm"
	"castanet/internal/dut"
	"castanet/internal/obs"
)

// Fault is one plantable defect.
type Fault struct {
	Name string
	// VC is the connection whose table entry is corrupted.
	VC atm.VC
	// Mutate corrupts the table in place.
	Mutate func(tb *atm.Translator)
}

// EntryFaults enumerates the standard fault set for one connection-table
// entry, in Classes order: mis-routed output port, flipped output VCI
// bit, flipped output VPI bit, and a deleted entry (cell loss). The
// connection must exist in tb; unknown VCs return nil.
func EntryFaults(tb *atm.Translator, vc atm.VC) []Fault {
	route, ok := tb.Lookup(vc)
	if !ok {
		return nil
	}
	return []Fault{
		{
			Name: fmt.Sprintf("%v:wrong-port", vc),
			VC:   vc,
			Mutate: func(t *atm.Translator) {
				r := route
				r.Port = (r.Port + 1) % dut.SwitchPorts
				t.Remove(vc)
				t.Add(vc, r)
			},
		},
		{
			Name: fmt.Sprintf("%v:vci-bit-flip", vc),
			VC:   vc,
			Mutate: func(t *atm.Translator) {
				r := route
				r.Out.VCI ^= 0x04
				t.Remove(vc)
				t.Add(vc, r)
			},
		},
		{
			Name: fmt.Sprintf("%v:vpi-bit-flip", vc),
			VC:   vc,
			Mutate: func(t *atm.Translator) {
				r := route
				r.Out.VPI ^= 0x01
				t.Remove(vc)
				t.Add(vc, r)
			},
		},
		{
			Name: fmt.Sprintf("%v:entry-lost", vc),
			VC:   vc,
			Mutate: func(t *atm.Translator) {
				t.Remove(vc)
			},
		},
	}
}

// TableFaults enumerates the standard fault set for every entry of a
// connection table, in the table's deterministic (VPI, VCI) VC order.
func TableFaults(tb *atm.Translator) []Fault {
	var faults []Fault
	for _, vc := range tb.VCs() {
		faults = append(faults, EntryFaults(tb, vc)...)
	}
	return faults
}

// Plant returns a copy of tb with fault f planted in it; tb itself is
// left intact. Harnesses poison only the device's copy, so the reference
// model keeps the intact table and the comparator is the detector.
func Plant(tb *atm.Translator, f Fault) *atm.Translator {
	poisoned := atm.NewTranslator()
	for _, vc := range tb.VCs() {
		r, _ := tb.Lookup(vc)
		poisoned.Add(vc, r)
	}
	f.Mutate(poisoned)
	return poisoned
}

// faultClasses are the cross's fault-class axis, the suffixes TableFaults
// stamps into every fault name.
var faultClasses = []string{"wrong-port", "vci-bit-flip", "vpi-bit-flip", "entry-lost", "other"}

// Classes returns the standard table-fault class names in EntryFaults
// order (without the "other" catch-all) — the axis scenario generators
// select planted faults by.
func Classes() []string {
	return append([]string(nil), faultClasses[:4]...)
}

// class extracts the fault class from a fault name ("0/32:wrong-port" →
// "wrong-port"); names outside the standard set land in "other".
func class(name string) string {
	c := name
	if i := strings.LastIndex(name, ":"); i >= 0 {
		c = name[i+1:]
	}
	for _, known := range faultClasses {
		if c == known {
			return c
		}
	}
	return "other"
}

// Cover bins one planted fault's outcome into the registry's
// fault-coverage cross — fault class × detection outcome under
// "faultsim.fault" — nil-safe like every cover handle.
func Cover(c *obs.CoverRegistry, faultName string, detected bool) {
	outcome := "escaped"
	if detected {
		outcome = "detected"
	}
	c.Group("faultsim.fault").Cross("class_outcome", faultClasses, []string{"detected", "escaped"}).
		Hit(class(faultName), outcome)
}
