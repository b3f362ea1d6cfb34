package experiments

import (
	"context"
	"fmt"
	"strings"

	"castanet/internal/campaign"
	"castanet/internal/dut"
)

// E8 is the second extension experiment: fault coverage of the reused
// network-level test bench, measured by injection. One defect at a time
// is planted in the "silicon's" connection table; the unchanged test
// bench runs on the hardware test board and the comparison engine either
// catches the defect or lets it escape. Sweeping the traffic's
// connection coverage shows that test-bench quality is a property of the
// stimuli — the paper's argument for reusing the rich network-level
// traffic models instead of hand-built vectors.

// E8Row is one sweep point.
type E8Row struct {
	PortsDriven int
	Faults      int
	Detected    int
	Coverage    float64
}

// E8Result is the campaign sweep.
type E8Result struct {
	Rows []E8Row
	// Summary is the tablefaults campaign the rows are read from: row n
	// is its "detected.p<n>" stat.
	Summary *campaign.Summary
}

// E8 runs the tablefaults campaign — fault sweeps with traffic on 1..4
// input ports — on GOMAXPROCS shards. A dirty golden run panics with the
// campaign digest; the runs' coverage lands in the factory's cover sink.
func (f Factory) E8(seed uint64) E8Result {
	matrix := tableFaultCells(CampaignConfig{})
	cover := f.Obs.CoverReg()
	sum, err := campaign.Execute(context.Background(), campaign.Spec{
		Name: "tablefaults", Seed: seed, Runs: len(matrix), Matrix: matrix, Coverage: cover != nil,
	})
	if err != nil {
		panic(err)
	}
	if !sum.Clean() {
		panic("E8: tablefaults campaign not clean:\n" + sum.Digest())
	}
	stats := make(map[string]campaign.Stat, len(sum.Stats))
	for _, st := range sum.Stats {
		stats[st.Name] = st
	}
	res := E8Result{Summary: sum}
	for n := 1; n <= dut.SwitchPorts; n++ {
		st := stats[fmt.Sprintf("detected.p%d", n)]
		res.Rows = append(res.Rows, E8Row{
			PortsDriven: n,
			Faults:      int(st.Count),
			Detected:    int(st.Sum),
			Coverage:    st.Mean(),
		})
	}
	cover.Absorb(sum.Coverage)
	return res
}

// String formats the coverage table.
func (r E8Result) String() string {
	var b strings.Builder
	b.WriteString("E8 (extension): fault coverage of the reused test bench (64 planted table defects)\n")
	fmt.Fprintf(&b, "  %12s %8s %10s %10s\n", "ports driven", "faults", "detected", "coverage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %12d %8d %10d %9.1f%%\n",
			row.PortsDriven, row.Faults, row.Detected, 100*row.Coverage)
	}
	b.WriteString("  [coverage tracks the traffic's connection coverage; full-mesh traffic catches everything]\n")
	return b.String()
}
