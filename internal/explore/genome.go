// Package explore closes the coverage loop: where a campaign sweeps a
// static experiment × fault matrix and merely *measures* functional
// coverage, the explorer *pursues* it. Each generation is one campaign
// (reusing the engine's supervision, retry and checkpoint machinery
// unchanged), whose merged coverage snapshot scores every scenario by the
// bins it newly covered; the best scenarios seed the next generation
// through coverage-guided mutation of traffic mix, rates, fault profiles
// and coupling configuration.
//
// Determinism contract: every generation seed, every mutation draw and
// every per-run seed derives from the explorer's master seed through
// sim.DeriveSeed, selection ties break on slot order, and per-slot
// novelty rides the campaign's checkpointed stat aggregates — so the
// final digest is byte-identical at any shard count and across
// kill/resume, and any discovered failure replays in isolation by global
// run index.
package explore

import (
	"castanet/internal/campaign"
	"castanet/internal/sim"
)

// Genome is one scenario's parameter vector: one bounded integer per
// gene, interpreted by the Space that issued it.
type Genome []uint16

// Clone returns an independent copy.
func (g Genome) Clone() Genome {
	return append(Genome(nil), g...)
}

// Gene describes one genome position: a name (for fingerprints and
// reports) and the cardinality of its value domain [0, Card).
type Gene struct {
	Name string
	Card int
}

// BinRef names one uncovered coverage bin — the currency mutation
// operators trade in.
type BinRef struct {
	Group string
	Point string
	Label string
}

// Pressure is the coverage feedback handed to Space.Mutate: the bins
// still uncovered after the last generation (sorted by group, point and
// definition order, bounded by maxPressureBins) plus the cumulative
// headline counts. An empty Uncovered list means mutation should fall
// back to undirected perturbation.
type Pressure struct {
	Uncovered []BinRef
	Covered   int
	Total     int
}

// maxPressureBins bounds the uncovered-bin list a Space sees per
// generation; beyond it the coverage frontier is summarized by the
// counts alone.
const maxPressureBins = 128

// Space defines a scenario space the explorer searches: how to seed a
// population, how to turn a genome into a runnable campaign cell, and how
// to mutate a genome under coverage pressure.
//
// Determinism contract: Seed and Mutate must draw randomness only from
// the supplied RNG, and Cell must be a pure function of the genome — the
// returned RunFunc derives all run randomness from the campaign run's
// own seed (r.RNG()), exactly like a static matrix cell.
type Space interface {
	// Name labels reports, digests and the state-file fingerprint.
	Name() string
	// Genes returns the genome schema. Its length and cardinalities are
	// fixed for the life of the space.
	Genes() []Gene
	// Seed returns one random genome for generation zero.
	Seed(rng *sim.RNG) Genome
	// Cell compiles a genome into a campaign cell. The cell's
	// Experiment/Fault labels must be a pure function of the genome (the
	// explorer prefixes them with generation/slot coordinates).
	Cell(g Genome) campaign.Cell
	// Mutate derives a child genome from a parent under coverage
	// pressure. The parent slice must not be modified (callers pass a
	// clone, but the contract keeps spaces honest).
	Mutate(parent Genome, rng *sim.RNG, p *Pressure) Genome
}

// clampGenome forces every gene of g into its domain — the repair step
// applied to genomes coming back from Mutate or restored from a state
// file, so a buggy space or a hand-edited file cannot push Cell outside
// the schema.
func clampGenome(g Genome, genes []Gene) Genome {
	for i := range g {
		if i >= len(genes) {
			break
		}
		if int(g[i]) >= genes[i].Card {
			g[i] = uint16(genes[i].Card - 1)
		}
	}
	return g
}
