package explore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"castanet/internal/campaign"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// ErrSpec reports an invalid exploration spec.
var ErrSpec = errors.New("explore: invalid spec")

// Seed-derivation salts: each deterministic stream the explorer consumes
// derives from the master seed through its own salt so streams never
// collide — the population seeding stream, one campaign seed per
// generation, and one mutation stream per generation boundary.
const (
	popSalt = 0xe590_0001
	genSalt = 0xe590_1000
	mutSalt = 0xe590_2000
)

// noveltyPrefix names the per-slot novelty stats the explorer smuggles
// through the campaign aggregate: "novelty.s<slot>". Stats are
// checkpointed per shard, so selection input survives kill/resume with
// the same exactness as the coverage section. The prefix is reserved;
// Space RunFuncs must not observe stats under it.
const noveltyPrefix = "novelty.s"

// Spec configures one exploration.
type Spec struct {
	// Space is the scenario space to search.
	Space Space
	// Seed is the master seed every derived stream hangs off.
	Seed uint64
	// Generations is how many campaign generations to run.
	Generations int
	// Population is the number of scenarios per generation.
	Population int
	// Shards is the per-generation campaign worker count (0 =
	// GOMAXPROCS). It never appears in the digest: the ladder, coverage
	// and failure lines are shard-invariant.
	Shards int
	// Target, when non-empty, restricts novelty scoring and mutation
	// pressure to this cover group; the ladder still reports all groups.
	Target string
	// Elite is how many top-novelty scenarios parent the next generation
	// (default max(1, Population/4)). The elite survive unmutated; the
	// remaining slots are coverage-guided mutants of the elite.
	Elite int
	// DigestMax bounds the retained failure lines across the whole
	// exploration (default 16); failures beyond it are counted, not kept.
	DigestMax int
	// Policy supervises every run exactly as in a static campaign.
	Policy campaign.Policy
	// Checkpoint, when non-empty, makes the exploration durable: the
	// explorer state file lives at this path and each in-flight
	// generation checkpoints to "<path>.g<gen>". Resume continues from
	// the pair with a byte-identical final digest.
	Checkpoint string
	// CheckpointEvery is the per-generation campaign checkpoint cadence.
	CheckpointEvery int
	// Obs, when non-nil, receives live telemetry: the campaign engine's
	// per-shard progress plus the explorer's generation ladder gauges and
	// the "explore.progress" cover group.
	Obs *obs.Run
	// OnGeneration, when non-nil, observes each committed generation —
	// progress printing and liveness heartbeats hang here.
	OnGeneration func(GenStat)
	// OnResult passes through to each generation's campaign spec.
	OnResult func(campaign.Result)
}

func (s *Spec) validate() error {
	switch {
	case s.Space == nil:
		return fmt.Errorf("%w: nil space", ErrSpec)
	case len(s.Space.Genes()) == 0:
		return fmt.Errorf("%w: space %q has no genes", ErrSpec, s.Space.Name())
	case s.Generations < 1:
		return fmt.Errorf("%w: generations %d must be at least 1", ErrSpec, s.Generations)
	case s.Population < 1:
		return fmt.Errorf("%w: population %d must be at least 1", ErrSpec, s.Population)
	case s.Elite < 0 || s.Elite > s.Population:
		return fmt.Errorf("%w: elite %d outside 1..population", ErrSpec, s.Elite)
	case s.DigestMax < 0:
		return fmt.Errorf("%w: digest max %d must be non-negative", ErrSpec, s.DigestMax)
	}
	for _, g := range s.Space.Genes() {
		if g.Card < 1 || g.Card > 1<<16 {
			return fmt.Errorf("%w: gene %q cardinality %d outside 1..65536", ErrSpec, g.Name, g.Card)
		}
	}
	return nil
}

func (s *Spec) elite() int {
	if s.Elite > 0 {
		return s.Elite
	}
	if e := s.Population / 4; e > 0 {
		return e
	}
	return 1
}

func (s *Spec) digestMax() int {
	if s.DigestMax > 0 {
		return s.DigestMax
	}
	return 16
}

// genCkptPath is the per-generation campaign checkpoint file.
func (s *Spec) genCkptPath(gen int) string {
	return fmt.Sprintf("%s.g%03d", s.Checkpoint, gen)
}

// GenStat is one generation-ladder entry: the cumulative coverage after
// the generation committed, the bins it newly covered, and how its
// scenarios scored. Everything here is integer-derived and
// shard-invariant.
type GenStat struct {
	Gen      int
	Covered  int // cumulative hit bins after this generation
	Total    int // cumulative defined bins
	New      int // bins this generation covered first
	Accepted int // scenarios that covered at least one new bin
	Rejected int // scenarios that covered nothing new
	Failures int // verification failures in this generation
}

// Failure is one retained exploration failure, addressed by its global
// run index gen*Population + slot — the coordinate -replay consumes.
type Failure struct {
	Index uint64
	Gen   int
	Slot  int
	Seed  uint64
	Cell  string
	Label string
}

// Result is the end-of-exploration report.
type Result struct {
	Space       string
	Seed        uint64
	Generations int // configured
	Population  int
	Target      string

	Ladder    []GenStat
	Coverage  []obs.CoverGroupSnap
	Failures  []Failure
	FailTotal int
	// Complete is false when cancellation stopped the exploration before
	// the configured generation count; the ladder holds the committed
	// generations only.
	Complete bool
	Wall     time.Duration
}

// engine is the in-flight exploration state; everything in it is a pure
// function of the spec and the committed generation count.
type engine struct {
	spec *Spec
	pop  []Genome
	cum  []obs.CoverGroupSnap
	// before indexes the bins covered before the current generation; the
	// wrapped RunFuncs score novelty against it.
	before    map[string]struct{}
	ladder    []GenStat
	failures  []Failure
	failTotal int
	gen       int // next generation to run
}

// Execute runs a fresh exploration. An existing state file (and stale
// per-generation checkpoints) at Spec.Checkpoint are removed first; use
// Resume to continue one.
func Execute(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	e := newEngine(&spec)
	if spec.Checkpoint != "" {
		removeState(&spec)
	}
	return e.run(ctx)
}

// Resume continues an exploration from Spec.Checkpoint: the explorer
// state file restores the committed generations (population, cumulative
// coverage, ladder, failures) and the interrupted generation's campaign
// checkpoint restores its partial progress, so the final digest is
// byte-identical to an uninterrupted run. A missing state file degrades
// to a fresh Execute.
func Resume(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Checkpoint == "" {
		return nil, fmt.Errorf("%w: resume requires a checkpoint path", ErrSpec)
	}
	e := newEngine(&spec)
	loaded, err := loadState(&spec, e)
	if err != nil {
		return nil, err
	}
	if !loaded {
		return Execute(ctx, spec)
	}
	return e.run(ctx)
}

// newEngine builds the generation-zero engine: the seed population drawn
// from the population stream, empty cumulative coverage.
func newEngine(spec *Spec) *engine {
	e := &engine{spec: spec}
	genes := spec.Space.Genes()
	rng := sim.NewRNG(sim.DeriveSeed(spec.Seed, popSalt))
	e.pop = make([]Genome, spec.Population)
	for s := range e.pop {
		e.pop[s] = clampGenome(spec.Space.Seed(rng), genes)
	}
	return e
}

// run executes generations e.gen..Generations-1, committing each one's
// coverage and selection before the next begins.
func (e *engine) run(ctx context.Context) (*Result, error) {
	start := time.Now()
	for e.gen < e.spec.Generations && ctx.Err() == nil {
		g := e.gen
		sum, err := e.runGeneration(ctx, g)
		if err != nil {
			return nil, err
		}
		if incomplete(sum, e.spec.Population) {
			// Cancellation caught the generation mid-flight; its campaign
			// checkpoint holds the partial progress, the explorer state
			// still points at generation g, and Resume replays the rest.
			break
		}
		e.commit(g, sum)
		if e.spec.Checkpoint != "" {
			if err := saveState(e.spec, e); err != nil {
				return nil, fmt.Errorf("explore: state checkpoint: %w", err)
			}
			// The committed generation's campaign checkpoint is now
			// redundant: the state file carries everything it proved.
			removeGenCkpt(e.spec, g)
		}
	}
	res := e.result()
	res.Wall = time.Since(start)
	return res, nil
}

// incomplete reports whether a generation campaign was cut short.
func incomplete(sum *campaign.Summary, population int) bool {
	return sum.Skipped > 0 || sum.Completed+sum.Failed < population
}

// runGeneration executes generation g as one campaign over the current
// population.
func (e *engine) runGeneration(ctx context.Context, g int) (*campaign.Summary, error) {
	e.before = binSet(e.cum, e.spec.Target)
	cells := make([]campaign.Cell, e.spec.Population)
	for s := range e.pop {
		cells[s] = e.wrapCell(g, s, e.pop[s])
	}
	cspec := campaign.Spec{
		Name:   fmt.Sprintf("%s-g%03d", e.spec.Space.Name(), g),
		Seed:   sim.DeriveSeed(e.spec.Seed, genSalt+uint64(g)),
		Runs:   e.spec.Population,
		Shards: e.spec.Shards,
		// Failures are bounded by the explorer across the whole ladder;
		// per generation every slot may keep its line.
		DigestMax: e.spec.Population,
		Matrix:    cells,
		Policy:    e.spec.Policy,
		Coverage:  true,
		Obs:       e.spec.Obs,
		OnResult:  e.spec.OnResult,
	}
	if e.spec.Checkpoint != "" {
		cspec.Checkpoint = e.spec.genCkptPath(g)
		cspec.CheckpointEvery = e.spec.CheckpointEvery
		// Resume degrades to a fresh Execute when the generation was
		// never interrupted (no checkpoint file on disk).
		return campaign.Resume(ctx, cspec)
	}
	return campaign.Execute(ctx, cspec)
}

// wrapCell compiles slot s's genome and wires the novelty probe around
// its RunFunc: after the scenario runs, the bins it hit that were not in
// the pre-generation cumulative set are counted into the campaign stat
// "novelty.s<slot>", which the engine checkpoints per shard like any
// other aggregate — the property that makes selection survive
// kill/resume.
func (e *engine) wrapCell(gen, slot int, genome Genome) campaign.Cell {
	cell := e.spec.Space.Cell(genome)
	cell.Experiment = fmt.Sprintf("g%03d/s%03d/%s", gen, slot, cell.Experiment)
	inner := cell.Run
	before, target, stat := e.before, e.spec.Target, noveltyStat(slot)
	cell.Run = func(ctx context.Context, r *campaign.Run) error {
		err := inner(ctx, r)
		r.Observe(stat, float64(countNovel(r.Cover().Snapshot(), before, target)))
		return err
	}
	return cell
}

func noveltyStat(slot int) string { return fmt.Sprintf("%s%03d", noveltyPrefix, slot) }

// parseNoveltySlot inverts noveltyStat; ok is false for foreign stats.
func parseNoveltySlot(name string) (int, bool) {
	if !strings.HasPrefix(name, noveltyPrefix) {
		return 0, false
	}
	slot, err := strconv.Atoi(strings.TrimPrefix(name, noveltyPrefix))
	if err != nil || slot < 0 {
		return 0, false
	}
	return slot, true
}

// binKey flattens a bin coordinate for set membership.
func binKey(group, point, label string) string {
	return group + "\x00" + point + "\x00" + label
}

// binSet indexes the hit bins of a snapshot, restricted to the target
// group when one is set.
func binSet(snaps []obs.CoverGroupSnap, target string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, g := range snaps {
		if target != "" && g.Name != target {
			continue
		}
		for _, p := range g.Points {
			for _, b := range p.Bins {
				if b.Hits > 0 {
					set[binKey(g.Name, p.Name, b.Label)] = struct{}{}
				}
			}
		}
	}
	return set
}

// countNovel counts the hit bins of snaps absent from before.
func countNovel(snaps []obs.CoverGroupSnap, before map[string]struct{}, target string) int {
	n := 0
	for _, g := range snaps {
		if target != "" && g.Name != target {
			continue
		}
		for _, p := range g.Points {
			for _, b := range p.Bins {
				if b.Hits == 0 {
					continue
				}
				if _, ok := before[binKey(g.Name, p.Name, b.Label)]; !ok {
					n++
				}
			}
		}
	}
	return n
}

// commit folds a completed generation into the engine: cumulative
// coverage, ladder entry, retained failures, and the next population.
func (e *engine) commit(g int, sum *campaign.Summary) {
	novelty := make([]int, e.spec.Population)
	for _, st := range sum.Stats {
		if slot, ok := parseNoveltySlot(st.Name); ok && slot < len(novelty) {
			novelty[slot] = int(st.Sum)
		}
	}
	beforeHit, _ := obs.CoverTotals(e.cum)
	e.cum = obs.MergeCover(e.cum, sum.Coverage)
	hit, total := obs.CoverTotals(e.cum)

	accepted := 0
	for _, n := range novelty {
		if n > 0 {
			accepted++
		}
	}
	stat := GenStat{
		Gen: g, Covered: hit, Total: total, New: hit - beforeHit,
		Accepted: accepted, Rejected: e.spec.Population - accepted,
		Failures: sum.Failed,
	}
	e.ladder = append(e.ladder, stat)
	e.failTotal += sum.Failed
	for _, f := range sum.Failures {
		if len(e.failures) >= e.spec.digestMax() {
			break
		}
		e.failures = append(e.failures, Failure{
			Index: uint64(g)*uint64(e.spec.Population) + f.Index,
			Gen:   g, Slot: int(f.Index),
			Seed: f.Seed, Cell: f.Cell, Label: f.Label(),
		})
	}
	e.gen = g + 1
	if e.gen < e.spec.Generations {
		e.pop = e.nextPopulation(g, novelty)
	}
	e.publish(stat)
}

// nextPopulation selects and mutates: scenarios sort by novelty
// descending with slot order breaking ties, the top Elite survive
// unmutated, and the remaining slots are coverage-guided mutants of the
// elite (round-robin parents, one mutation stream per generation
// boundary consumed in slot order).
func (e *engine) nextPopulation(g int, novelty []int) []Genome {
	order := make([]int, e.spec.Population)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		if novelty[order[i]] != novelty[order[j]] {
			return novelty[order[i]] > novelty[order[j]]
		}
		return order[i] < order[j]
	})
	elite := order[:e.spec.elite()]
	press := e.pressure()
	genes := e.spec.Space.Genes()
	rng := sim.NewRNG(sim.DeriveSeed(e.spec.Seed, mutSalt+uint64(g)+1))
	next := make([]Genome, e.spec.Population)
	for s := range next {
		parent := e.pop[elite[s%len(elite)]]
		if s < len(elite) {
			next[s] = parent.Clone()
			continue
		}
		next[s] = clampGenome(e.spec.Space.Mutate(parent.Clone(), rng, press), genes)
	}
	return next
}

// pressure summarizes the cumulative coverage frontier for mutation: the
// first maxPressureBins uncovered bins in snapshot order (groups and
// points sorted by name, bins in definition order — deterministic),
// restricted to the target group when one is set.
func (e *engine) pressure() *Pressure {
	p := &Pressure{}
	p.Covered, p.Total = obs.CoverTotals(e.cum)
	for _, g := range e.cum {
		if e.spec.Target != "" && g.Name != e.spec.Target {
			continue
		}
		for _, pt := range g.Points {
			for _, b := range pt.Bins {
				if b.Hits > 0 || len(p.Uncovered) >= maxPressureBins {
					continue
				}
				p.Uncovered = append(p.Uncovered, BinRef{Group: g.Name, Point: pt.Name, Label: b.Label})
			}
		}
	}
	return p
}

// publish mirrors a committed generation into live telemetry: ladder
// gauges, accept/reject counters, and one bin per generation in the
// "explore.progress" cover group so /coverage shows exploration advance.
func (e *engine) publish(stat GenStat) {
	if e.spec.Obs != nil {
		reg := e.spec.Obs.Reg()
		reg.Gauge("explore.generation").Set(float64(stat.Gen + 1))
		reg.Gauge("explore.covered_bins").Set(float64(stat.Covered))
		reg.Gauge("explore.total_bins").Set(float64(stat.Total))
		reg.Gauge("explore.new_bins").Set(float64(stat.New))
		reg.Counter("explore.mutations.accepted").Add(uint64(stat.Accepted))
		reg.Counter("explore.mutations.rejected").Add(uint64(stat.Rejected))
		reg.Counter("explore.failures").Add(uint64(stat.Failures))
		labels := make([]string, e.spec.Generations)
		for i := range labels {
			labels[i] = fmt.Sprintf("g%03d", i)
		}
		e.spec.Obs.CoverReg().Group("explore.progress").
			Point("generation", labels...).Hit(fmt.Sprintf("g%03d", stat.Gen))
	}
	if e.spec.OnGeneration != nil {
		e.spec.OnGeneration(stat)
	}
}

func (e *engine) result() *Result {
	return &Result{
		Space:       e.spec.Space.Name(),
		Seed:        e.spec.Seed,
		Generations: e.spec.Generations,
		Population:  e.spec.Population,
		Target:      e.spec.Target,
		Ladder:      append([]GenStat(nil), e.ladder...),
		Coverage:    e.cum,
		Failures:    append([]Failure(nil), e.failures...),
		FailTotal:   e.failTotal,
		Complete:    e.gen >= e.spec.Generations,
	}
}

// Replay re-executes one exploration run in isolation, addressed by its
// global index gen*Population + slot (the run= coordinate in the
// digest). Generations before the target are re-derived deterministically
// — their campaigns re-run in memory, never touching checkpoint files —
// so the target generation's population is exactly the one the original
// exploration ran, then the single run replays under the campaign
// engine's supervision policy.
func Replay(ctx context.Context, spec Spec, index uint64) (campaign.Result, error) {
	if err := spec.validate(); err != nil {
		return campaign.Result{}, err
	}
	totalRuns := uint64(spec.Generations) * uint64(spec.Population)
	if index >= totalRuns {
		return campaign.Result{}, fmt.Errorf("%w: replay index %d outside 0..%d", ErrSpec, index, totalRuns-1)
	}
	// Re-derivation must not disturb (or depend on) durable state.
	spec.Checkpoint = ""
	spec.Obs = nil
	spec.OnGeneration = nil
	spec.OnResult = nil
	gen := int(index / uint64(spec.Population))
	slot := index % uint64(spec.Population)
	e := newEngine(&spec)
	for g := 0; g < gen; g++ {
		sum, err := e.runGeneration(ctx, g)
		if err != nil {
			return campaign.Result{}, err
		}
		if incomplete(sum, spec.Population) {
			return campaign.Result{}, ctx.Err()
		}
		e.commit(g, sum)
	}
	e.before = binSet(e.cum, spec.Target)
	cells := make([]campaign.Cell, spec.Population)
	for s := range e.pop {
		cells[s] = e.wrapCell(gen, s, e.pop[s])
	}
	cspec := campaign.Spec{
		Name:      fmt.Sprintf("%s-g%03d", spec.Space.Name(), gen),
		Seed:      sim.DeriveSeed(spec.Seed, genSalt+uint64(gen)),
		Runs:      spec.Population,
		Shards:    spec.Shards,
		DigestMax: spec.Population,
		Matrix:    cells,
		Policy:    spec.Policy,
		Coverage:  true,
	}
	return campaign.Replay(ctx, cspec, slot)
}
