package experiments

import (
	"context"
	"strings"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/coverify"
)

// TestCampaignNoCompiledReachesEveryRig runs every cell of the four
// campaign matrices with and without NoCompiled and checks the kernel
// each run elaborated (hdl.Simulator.Compiled, reported as the run's
// result value): the -no-compiled choice must reach every rig.
func TestCampaignNoCompiledReachesEveryRig(t *testing.T) {
	for _, name := range []string{"switch", "faults", "policer", "acct"} {
		for _, noCompiled := range []bool{false, true} {
			cfg := DefaultCampaignConfig
			cfg.NoCompiled = noCompiled
			matrix, err := CampaignMatrixCfg(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			kernels := 0
			_, err = campaign.Execute(context.Background(), campaign.Spec{
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

// TestCampaignMatrixCfg: names resolve under any config, unknown names
// are typed errors, and the sampling knob reaches runObs.
func TestCampaignMatrixCfg(t *testing.T) {
	if _, err := CampaignMatrix("switch"); err != nil {
		t.Fatalf("default switch matrix: %v", err)
	}
	if _, err := CampaignMatrixCfg("nope", DefaultCampaignConfig); err == nil {
		t.Error("unknown campaign accepted")
	}
	if cells, _ := (CampaignConfig{TraceEvery: 0}).runObs(); cells != nil {
		t.Error("TraceEvery=0 must disable the cell tracker")
	}
	if cells, rec := (CampaignConfig{TraceEvery: 3}).runObs(); cells.Every() != 3 || !rec.Enabled() {
		t.Error("runObs must honor the sampling interval and always record")
	}
}

// TestCampaignTriageBundle is the acceptance path for causal tracing: a
// campaign whose DUT responses are deterministically tampered with must
// fail, and its report must carry — without any re-run — the offending
// cell's trace ID, its per-hop latency waterfall, and the flight-recorder
// dump.
func TestCampaignTriageBundle(t *testing.T) {
	cfg := DefaultCampaignConfig
	matrix := []campaign.Cell{{Experiment: "tampered", Run: func(ctx context.Context, r *campaign.Run) error {
		rng := r.RNG()
		tr, horizon := campaignTraffic(rng)
		cells, rec := cfg.runObs()
		rig := coverify.NewSwitchRig(coverify.SwitchRigConfig{
			Seed: rng.Uint64(), Traffic: tr, Cells: cells, Recorder: rec,
			TamperResponse: func(c *atm.Cell) { c.Payload[atm.PayloadBytes-1] ^= 0xFF },
		})
		if err := rig.Run(horizon); err != nil {
			return campaign.Detailed(err, rig.FailureDigest())
		}
		if !rig.Cmp.Clean() {
			return campaign.Detailed(
				campaignFailErr(rig.Cmp.Summary()),
				rig.FailureDigest())
		}
		return nil
	}}}

	sum, err := campaign.Execute(context.Background(), campaign.Spec{
		Name: "tampered", Seed: 3, Runs: 2, Shards: 1, Matrix: matrix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 2 {
		t.Fatalf("tampered campaign failed %d of 2 runs, want all", sum.Failed)
	}

	var report strings.Builder
	if err := sum.WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	out := report.String()
	for _, want := range []string{
		"first mismatch:",
		"trace=0x",
		"cell trace 0x",
		"net.enqueue",
		"ipc.tx",
		"entity.rx",
		"hdl.commit",
		"compare",
		"flight recorder",
		"[cmp]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("failure report missing %q:\n%s", want, out)
		}
	}

	// The canonical digest must stay single-line-per-failure: the triage
	// bundle is report detail, never digest content, so digests remain
	// byte-identical across shard counts.
	for _, line := range strings.Split(strings.TrimRight(sum.Digest(), "\n"), "\n") {
		if !strings.HasPrefix(line, "run=") {
			t.Errorf("digest line %q is not a run line", line)
		}
	}
}

// campaignFailErr keeps the tampered matrix deterministic: same text for
// the same comparison summary.
type campaignFailErr string

func (e campaignFailErr) Error() string { return "switch comparison not clean: " + string(e) }
