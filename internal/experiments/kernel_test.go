package experiments_test

import (
	"context"
	"testing"

	"castanet/internal/campaign"
	"castanet/internal/experiments"
	"castanet/internal/explore"
	"castanet/internal/sim"
)

// exploreCells is a matrix of explorer scenarios: the switch space's
// cells for a handful of seed genomes. The explorer builds its rigs from
// the same CampaignConfig as the static matrices, so it is one more input
// to the kernel check below.
func exploreCells(cfg experiments.CampaignConfig) []campaign.Cell {
	space := explore.NewSwitchSpace(cfg)
	rng := sim.NewRNG(3)
	var cells []campaign.Cell
	for i := 0; i < 6; i++ {
		cells = append(cells, space.Cell(space.Seed(rng)))
	}
	return cells
}

// TestCampaignNoCompiledReachesEveryRig runs every cell of the four
// campaign matrices and of an explorer matrix with and without NoCompiled
// and checks the kernel each run elaborated (hdl.Simulator.Compiled,
// reported as the run's result value): the -no-compiled choice must
// reach every rig.
func TestCampaignNoCompiledReachesEveryRig(t *testing.T) {
	for _, name := range []string{"switch", "faults", "policer", "acct", "explore"} {
		for _, noCompiled := range []bool{false, true} {
			cfg := experiments.DefaultCampaignConfig
			cfg.NoCompiled = noCompiled
			var matrix []campaign.Cell
			if name == "explore" {
				matrix = exploreCells(cfg)
			} else {
				var err error
				if matrix, err = experiments.CampaignMatrixCfg(name, cfg); err != nil {
					t.Fatal(err)
				}
			}
			kernels := 0
			_, err := campaign.Execute(context.Background(), campaign.Spec{
				Name: name, Seed: 1, Runs: len(matrix), Shards: 1, Matrix: matrix,
				OnResult: func(res campaign.Result) {
					if compiled, ok := res.Value.(bool); !ok || compiled == noCompiled {
						t.Errorf("%s run %d: NoCompiled=%v but the kernel reported compiled=%v", name, res.Index, noCompiled, res.Value)
					}
					kernels++
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if kernels != len(matrix) {
				t.Errorf("%s: checked %d kernels for %d runs", name, kernels, len(matrix))
			}
		}
	}
}
