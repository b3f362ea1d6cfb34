package explore

import (
	"strings"
	"testing"

	"castanet/internal/experiments"
	"castanet/internal/sim"
)

// TestSwitchSpaceGenomeRoundTrip: decoding repairs every genome into a
// legal scenario (at least one active port) and labels are pure functions
// of the genome.
func TestSwitchSpaceGenomeRoundTrip(t *testing.T) {
	s := NewSwitchSpace(experiments.CampaignConfig{})
	if len(s.Genes()) != geneCount {
		t.Fatalf("gene count %d, want %d", len(s.Genes()), geneCount)
	}
	rng := sim.NewRNG(42)
	for i := 0; i < 200; i++ {
		g := s.Seed(rng)
		sc := s.decode(g)
		active := false
		for p := 0; p < 4; p++ {
			if sc.genome[geneKind+p] != kindSilent {
				active = true
			}
		}
		if !active {
			t.Fatalf("decode left all ports silent: %v", g)
		}
		if sc.horizon <= 500*sim.Microsecond {
			t.Fatalf("horizon %v not above the traversal slack: %v", sc.horizon, g)
		}
		if !strings.HasPrefix(sc.label(), "sw-") || len(sc.label()) != 3+geneCount {
			t.Fatalf("label %q malformed for %v", sc.label(), g)
		}
		if sc.faultLabel() == "" {
			t.Fatalf("empty fault label for %v", g)
		}
	}
	// The all-silent genome is repaired to a CBR port 0.
	allSilent := make(Genome, geneCount)
	if sc := s.decode(allSilent); sc.genome[geneKind] != kindCBR {
		t.Fatalf("all-silent repair: kind0 = %d, want CBR", sc.genome[geneKind])
	}
}

// TestSwitchSpaceMutateStaysInDomain: directed and undirected mutations
// always produce in-domain genomes, under every pressure group the nudge
// table knows.
func TestSwitchSpaceMutateStaysInDomain(t *testing.T) {
	s := NewSwitchSpace(experiments.CampaignConfig{})
	rng := sim.NewRNG(7)
	pressures := []*Pressure{
		{},
		{Uncovered: []BinRef{{Group: "faultsim.fault", Point: "class_outcome", Label: "entry-lost×escaped"}}},
		{Uncovered: []BinRef{{Group: "faultsim.fault", Point: "class_outcome", Label: "wrong-port×detected"}}},
		{Uncovered: []BinRef{{Group: "coverify.cmp", Point: "verdict", Label: "mismatch"}}},
		{Uncovered: []BinRef{{Group: "dut.queue", Point: "depth0", Label: "gt_16"}}},
		{Uncovered: []BinRef{{Group: "coverify.cell_header", Point: "clp", Label: "clp1"}}},
		{Uncovered: []BinRef{{Group: "coverify.cell_header", Point: "vpi", Label: "le_4"}}},
		{Uncovered: []BinRef{{Group: "cosim.sync", Point: "lag", Label: "gt_64"}}},
		{Uncovered: []BinRef{{Group: "unknown.group", Point: "x", Label: "y"}}},
	}
	genes := s.Genes()
	for i := 0; i < 500; i++ {
		parent := s.Seed(rng)
		child := s.Mutate(parent.Clone(), rng, pressures[i%len(pressures)])
		if len(child) != geneCount {
			t.Fatalf("mutant length %d", len(child))
		}
		for j, v := range child {
			if int(v) >= genes[j].Card {
				t.Fatalf("gene %s = %d outside card %d", genes[j].Name, v, genes[j].Card)
			}
		}
	}
}

// TestSwitchSpaceExploreSmoke runs a tiny real exploration end to end,
// twice, and demands completion, advancing coverage, zero verification
// failures at this pinned seed, and a byte-identical digest. The second
// run elaborates every rig on the plain event-driven kernel: the two
// kernels are observably equivalent (DESIGN.md §18), so -no-compiled must
// not move a digest byte.
func TestSwitchSpaceExploreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full co-verification rigs in -short mode")
	}
	spec := Spec{
		Space:       NewSwitchSpace(experiments.CampaignConfig{}),
		Seed:        11,
		Generations: 2,
		Population:  3,
		Shards:      2,
	}
	run := func(noCompiled bool) *Result {
		spec.Space = NewSwitchSpace(experiments.CampaignConfig{NoCompiled: noCompiled})
		return mustExplore(t, spec)
	}
	res := run(false)
	if !res.Complete || len(res.Ladder) != 2 {
		t.Fatalf("exploration incomplete: %+v", res.Ladder)
	}
	final := res.Ladder[1]
	if final.Covered == 0 || final.Total == 0 {
		t.Fatalf("no coverage accumulated: %+v", final)
	}
	if res.FailTotal != 0 {
		t.Fatalf("pinned-seed exploration found %d failures:\n%s", res.FailTotal, res.Digest())
	}
	if got := run(true).Digest(); got != res.Digest() {
		t.Errorf("switch-space digest differs under NoCompiled:\n--- no-compiled\n%s\n--- compiled\n%s", got, res.Digest())
	}
}
