package explore

import (
	"context"
	"fmt"
	"strings"

	"castanet/internal/atm"
	"castanet/internal/campaign"
	"castanet/internal/coverify"
	"castanet/internal/dut"
	"castanet/internal/experiments"
	"castanet/internal/faultsim"
	"castanet/internal/sim"
	"castanet/internal/traffic"
)

// SwitchSpace is the production scenario space: the switch co-verification
// rig parameterized over everything the static campaign matrices keep
// fixed — per-port traffic model, rate, volume and VC focus, cell-loss
// priority mix, link- and connection-table fault injection, and the
// coupling's δ-window and sync period.
//
// Where the static "switch" and "faults" campaigns deliberately stay in
// the uncongested, spread-traffic regime (every cell must be delivered),
// the explorer's whole point is to leave it: VC-focused high-rate bursts
// overrun output queues, planted table faults exercise the
// detected/escaped cross, and CLP-tagged cells hit the priority bins. A
// congested output legally drops cells, so a clean scenario's verdict is
// mismatch-only — wrong or misrouted data fails the run, cells the
// hardware visibly dropped under overload do not (the static campaigns
// keep the strict every-cell-delivered check for the uncongested regime).
type SwitchSpace struct {
	cfg experiments.CampaignConfig
}

// NewSwitchSpace returns the switch scenario space. Every scenario's rig
// takes its kernel choice and per-run observability from cfg, exactly as
// a static campaign cell does.
func NewSwitchSpace(cfg experiments.CampaignConfig) *SwitchSpace {
	return &SwitchSpace{cfg: cfg}
}

// Gene layout. Per-port genes repeat for the four switch ports; the
// remaining genes configure priority, fault injection and the coupling.
const (
	geneKind  = 0  // +p: traffic model kind, card 7
	geneRate  = 4  // +p: nominal mean rate index, card len(rateTable)
	geneCells = 8  // +p: cell volume index, card len(cellsTable)
	geneVCs   = 12 // +p: 0 = spread over all VCs, 1+q = focus output q
	geneCLP   = 16 // CLP=1 fraction index
	geneFault = 17 // 0 clean, 1..4 link profile, 5..8 table-fault class
	geneFPort = 18 // table-fault port
	geneDelta = 19 // δ-window clocks index
	geneSync  = 20 // sync period index
	geneCount = 21
)

// Traffic model kinds (geneKind values).
const (
	kindSilent = iota
	kindCBR
	kindPoisson
	kindOnOff
	kindMMPP2
	kindPareto
	kindMPEG
	kindCount
)

var kindNames = [kindCount]string{"silent", "cbr", "poisson", "onoff", "mmpp2", "pareto", "mpeg"}

// rateTable is the nominal mean cell rate menu (cells/s). The top entries
// exceed what a single output port can sink (~377k cells/s line rate)
// once two VC-focused ports pile onto it — the congestion regime the
// static matrices never enter.
var rateTable = []float64{40e3, 60e3, 80e3, 110e3, 150e3, 200e3, 250e3, 300e3}

// cellsTable is the per-port cell volume menu.
var cellsTable = []uint64{8, 12, 16, 24, 32, 48}

// clpTable is the CLP=1 fraction menu.
var clpTable = []float64{0, 0.1, 0.25, 0.5}

// deltaTable is the δ-window menu in HDL clocks (50 ns each).
var deltaTable = []int{16, 32, 64, 128}

// syncTable is the periodic time-update menu in microseconds.
var syncTable = []int{10, 25, 50, 100}

// switchGenes is the fixed genome schema.
var switchGenes = buildSwitchGenes()

func buildSwitchGenes() []Gene {
	genes := make([]Gene, geneCount)
	for p := 0; p < dut.SwitchPorts; p++ {
		genes[geneKind+p] = Gene{Name: fmt.Sprintf("kind%d", p), Card: kindCount}
		genes[geneRate+p] = Gene{Name: fmt.Sprintf("rate%d", p), Card: len(rateTable)}
		genes[geneCells+p] = Gene{Name: fmt.Sprintf("cells%d", p), Card: len(cellsTable)}
		genes[geneVCs+p] = Gene{Name: fmt.Sprintf("vcs%d", p), Card: dut.SwitchPorts + 1}
	}
	genes[geneCLP] = Gene{Name: "clp", Card: len(clpTable)}
	genes[geneFault] = Gene{Name: "fault", Card: 1 + 4 + 4}
	genes[geneFPort] = Gene{Name: "fport", Card: dut.SwitchPorts}
	genes[geneDelta] = Gene{Name: "delta", Card: len(deltaTable)}
	genes[geneSync] = Gene{Name: "sync", Card: len(syncTable)}
	return genes
}

// Name implements Space.
func (s *SwitchSpace) Name() string { return "switch-explore" }

// Genes implements Space.
func (s *SwitchSpace) Genes() []Gene { return switchGenes }

// Seed implements Space: a uniform random genome.
func (s *SwitchSpace) Seed(rng *sim.RNG) Genome {
	g := make(Genome, geneCount)
	for i, gene := range switchGenes {
		g[i] = uint16(rng.Intn(gene.Card))
	}
	return g
}

// scenario is a decoded genome.
type scenario struct {
	genome  Genome
	clp     float64
	fault   int // raw geneFault value
	fport   int
	delta   sim.Duration
	sync    sim.Duration
	horizon sim.Time
}

// decode interprets a genome, repairing the one illegal configuration
// (all ports silent: port 0 becomes CBR).
func (s *SwitchSpace) decode(g Genome) scenario {
	g = clampGenome(g.Clone(), switchGenes)
	active := false
	for p := 0; p < dut.SwitchPorts; p++ {
		if g[geneKind+p] != kindSilent {
			active = true
		}
	}
	if !active {
		g[geneKind+0] = kindCBR
	}
	sc := scenario{
		genome: g,
		clp:    clpTable[g[geneCLP]],
		fault:  int(g[geneFault]),
		fport:  int(g[geneFPort]),
		delta:  sim.Duration(deltaTable[g[geneDelta]]) * 50 * sim.Nanosecond,
		sync:   sim.Duration(syncTable[g[geneSync]]) * sim.Microsecond,
	}
	// Horizon: the slowest port's expected emission time with a per-kind
	// dispersion margin (bursty models emit their volume unevenly), plus
	// traversal slack. A pure function of the genome.
	for p := 0; p < dut.SwitchPorts; p++ {
		kind := int(g[geneKind+p])
		if kind == kindSilent {
			continue
		}
		rate := rateTable[g[geneRate+p]]
		cells := float64(cellsTable[g[geneCells+p]])
		floor, margin := rate, 2.0
		switch kind {
		case kindCBR:
			margin = 1.3
		case kindOnOff:
			margin = 3
		case kindMMPP2:
			floor, margin = rate/2, 2 // slowest modulation state
		case kindPareto:
			margin = 5 // heavy-tailed OFF periods
		case kindMPEG:
			margin = 3
		}
		if h := sim.FromSeconds(cells / floor * margin); h > sc.horizon {
			sc.horizon = h
		}
	}
	sc.horizon += 500 * sim.Microsecond
	return sc
}

// model builds port p's traffic model; the menus pin each model's mean
// rate at the gene's nominal rate (MMPP2 averages 1.25× across its two
// states) so the horizon estimate holds for every kind.
func (sc *scenario) model(p int) traffic.Model {
	rate := rateTable[sc.genome[geneRate+p]]
	switch sc.genome[geneKind+p] {
	case kindCBR:
		return traffic.NewCBR(rate)
	case kindPoisson:
		return traffic.NewPoisson(rate)
	case kindOnOff:
		return &traffic.OnOff{
			PeakInterval: sim.FromSeconds(1 / (2 * rate)),
			MeanOn:       40 * sim.Microsecond,
			MeanOff:      40 * sim.Microsecond,
		}
	case kindMMPP2:
		return &traffic.MMPP2{
			Rate1: rate / 2, Rate2: 2 * rate,
			Sojourn1: 50 * sim.Microsecond, Sojourn2: 50 * sim.Microsecond,
		}
	case kindPareto:
		return &traffic.ParetoOnOff{
			PeakInterval: sim.FromSeconds(1 / (2 * rate)),
			MeanOn:       40 * sim.Microsecond,
			MeanOff:      20 * sim.Microsecond,
			Alpha:        1.5,
		}
	case kindMPEG:
		// Scaled-down video: frame cadence raised until the mean cell
		// rate approximates the gene's nominal rate (~11.75 cells per
		// mean GOP frame), cells spaced at the 2.65 µs line-cell time.
		return &traffic.MPEG{
			FrameRate: rate / 11.75,
			MeanI:     1600, MeanP: 800, MeanB: 300,
			CV:           0.3,
			LinkCellTime: 2650 * sim.Nanosecond,
		}
	}
	return nil
}

// portVCs returns port p's connection list: the full DefaultTable spread
// or a single focused VC aimed at one output port.
func (sc *scenario) portVCs(p int) []atm.VC {
	v := int(sc.genome[geneVCs+p])
	if v == 0 {
		return coverify.PortVCs(p)
	}
	return []atm.VC{{VPI: byte(p + 1), VCI: uint16(100 + v - 1)}}
}

// tableFaultVC is the connection a table-fault scenario poisons: the VC
// the fault port would drive first if it is active — so the fault is
// detected exactly when the scenario aligns traffic with it, and escapes
// when the port stays silent.
func (sc *scenario) tableFaultVC() atm.VC {
	q := 0
	if v := int(sc.genome[geneVCs+sc.fport]); v > 0 {
		q = v - 1
	}
	return atm.VC{VPI: byte(sc.fport + 1), VCI: uint16(100 + q)}
}

// faultLabel names the scenario's fault column for the campaign cell.
func (sc *scenario) faultLabel() string {
	switch {
	case sc.fault == 0:
		return "clean"
	case sc.fault <= 4:
		return experiments.LinkFaultProfiles()[sc.fault-1].Name
	default:
		return fmt.Sprintf("%s@p%d", faultsim.Classes()[sc.fault-5], sc.fport)
	}
}

// label renders the genome as the cell's experiment name: one digit per
// gene (every cardinality is below ten), stable and replay-greppable.
func (sc *scenario) label() string {
	var b strings.Builder
	b.WriteString("sw-")
	for _, v := range sc.genome {
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Cell implements Space: compile a genome into a campaign cell.
func (s *SwitchSpace) Cell(g Genome) campaign.Cell {
	sc := s.decode(g)
	return campaign.Cell{
		Experiment: sc.label(),
		Fault:      sc.faultLabel(),
		Run:        s.runFunc(sc),
	}
}

// runFunc builds the scenario's RunFunc. All run randomness derives from
// the campaign run's own seed stream, exactly like a static matrix cell.
func (s *SwitchSpace) runFunc(sc scenario) campaign.RunFunc {
	return func(ctx context.Context, r *campaign.Run) error {
		rng := r.RNG()
		var tr [dut.SwitchPorts]coverify.PortTraffic
		for p := 0; p < dut.SwitchPorts; p++ {
			if sc.genome[geneKind+p] == kindSilent {
				continue
			}
			tr[p] = coverify.PortTraffic{
				Model: sc.model(p),
				VCs:   sc.portVCs(p),
				CLP1:  sc.clp,
				Cells: cellsTable[sc.genome[geneCells+p]],
			}
		}
		cfg := s.cfg.SwitchRigConfig(r)
		cfg.Seed, cfg.Traffic = rng.Uint64(), tr
		cfg.Delta, cfg.SyncEvery = sc.delta, sc.sync
		var profile *experiments.LinkFaultProfile
		if sc.fault >= 1 && sc.fault <= 4 {
			profile = &experiments.LinkFaultProfiles()[sc.fault-1]
			experiments.RemoteLink(&cfg, profile, rng)
		}

		rig := coverify.NewSwitchRig(cfg)
		r.SetValue(rig.HDL.Compiled())
		// Table faults poison the "silicon" only: the reference model
		// keeps the intact table, so the comparator is the detector.
		var plantedFault string
		if sc.fault >= 5 {
			vc := sc.tableFaultVC()
			fault := faultsim.EntryFaults(rig.Cfg.Table, vc)[sc.fault-5]
			poisoned := coverify.DefaultTable()
			fault.Mutate(poisoned)
			rig.DUT.Table = poisoned
			plantedFault = fault.Name
		}

		if done, err := experiments.RunLink(ctx, rig, sc.horizon, profile); done {
			return err
		}
		r.Observe("cells", float64(rig.Offered))

		if plantedFault != "" {
			// A planted fault's run cannot "fail": the outcome — caught
			// or escaped — is the coverage signal itself.
			faultsim.CoverOne(r.Cover(), plantedFault, !rig.Cmp.Clean())
			return nil
		}
		// Congestion legally drops cells (that is the point of the
		// VC-focused high-rate scenarios), so only wrong or misrouted
		// data fails a clean scenario — never outstanding cells.
		if m := rig.Cmp.Mismatches(); len(m) > 0 {
			return campaign.Detailed(
				fmt.Errorf("switch comparison mismatched: %s", rig.Cmp.Summary()),
				rig.FailureDigest())
		}
		return nil
	}
}

// Mutate implements Space: with coverage pressure available, one
// uncovered bin usually picks a directed operator (fault alignment, rate
// push, priority or coupling perturbation); an undirected single-gene
// perturbation keeps the search ergodic either way.
func (s *SwitchSpace) Mutate(parent Genome, rng *sim.RNG, p *Pressure) Genome {
	g := clampGenome(parent, switchGenes)
	directed := false
	if len(p.Uncovered) > 0 && rng.Bool(0.75) {
		directed = s.nudge(g, rng, p.Uncovered[rng.Intn(len(p.Uncovered))])
	}
	if !directed || rng.Bool(0.3) {
		i := rng.Intn(len(g))
		g[i] = uint16(rng.Intn(switchGenes[i].Card))
	}
	return g
}

// nudge applies the directed mutation operator for one uncovered bin;
// false means no operator applies to that group.
func (s *SwitchSpace) nudge(g Genome, rng *sim.RNG, ref BinRef) bool {
	switch ref.Group {
	case "faultsim.fault":
		// "class×outcome": plant that class; align the fault port with
		// live traffic to chase detected, park it on a silenced port to
		// chase escaped.
		class, outcome, ok := strings.Cut(ref.Label, "×")
		if !ok {
			return false
		}
		for i, name := range faultsim.Classes() {
			if name == class {
				g[geneFault] = uint16(5 + i)
			}
		}
		fp := rng.Intn(dut.SwitchPorts)
		g[geneFPort] = uint16(fp)
		if outcome == "escaped" {
			g[geneKind+fp] = kindSilent
		} else if g[geneKind+fp] == kindSilent {
			g[geneKind+fp] = uint16(1 + rng.Intn(kindCount-1))
		}
		return true
	case "coverify.cmp":
		// The mismatch verdict needs a planted defect on live traffic.
		fp := rng.Intn(dut.SwitchPorts)
		g[geneFault] = uint16(5 + rng.Intn(4))
		g[geneFPort] = uint16(fp)
		if g[geneKind+fp] == kindSilent {
			g[geneKind+fp] = uint16(1 + rng.Intn(kindCount-1))
		}
		return true
	case "dut.queue":
		// Depth bands and drop causes want focused overload: two ports
		// at top rate aimed at one output.
		q := rng.Intn(dut.SwitchPorts)
		for _, fp := range []int{rng.Intn(dut.SwitchPorts), rng.Intn(dut.SwitchPorts)} {
			if g[geneKind+fp] == kindSilent {
				g[geneKind+fp] = uint16(1 + rng.Intn(kindCount-1))
			}
			g[geneRate+fp] = uint16(len(rateTable) - 1 - rng.Intn(2))
			g[geneCells+fp] = uint16(len(cellsTable) - 1 - rng.Intn(2))
			g[geneVCs+fp] = uint16(1 + q)
		}
		return true
	case "coverify.cell_header":
		if ref.Point == "clp" {
			g[geneCLP] = uint16(1 + rng.Intn(len(clpTable)-1))
			return true
		}
		// Header range bins follow from which ports drive: wake a port.
		fp := rng.Intn(dut.SwitchPorts)
		if g[geneKind+fp] == kindSilent {
			g[geneKind+fp] = uint16(1 + rng.Intn(kindCount-1))
		}
		g[geneVCs+fp] = uint16(rng.Intn(dut.SwitchPorts + 1))
		return true
	case "cosim.sync", "cosim.coupling":
		// Sync-lag and batch-size bins respond to the coupling shape.
		g[geneDelta] = uint16(rng.Intn(len(deltaTable)))
		g[geneSync] = uint16(rng.Intn(len(syncTable)))
		return true
	}
	return false
}
