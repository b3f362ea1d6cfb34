// Package campaign fans a matrix of co-verification runs — {experiment ×
// seed × fault-profile} — across a bounded worker pool. One castanet
// process stops meaning one experiment: a campaign schedules thousands of
// deterministic, independently replayable verification runs onto
// GOMAXPROCS-bounded shards, streams their statistics into a bounded
// aggregate, and distils failures into a digest whose lines reproduce the
// exact failing run in isolation.
//
// Determinism is structural, not incidental:
//
//   - Run i draws its seed from sim.DeriveSeed(campaign seed, i), so the
//     stimulus of a run depends only on the (campaign seed, index) pair —
//     never on scheduling, shard count, or the runs around it.
//   - Run i executes matrix cell i % len(Matrix), so the experiment ×
//     fault-profile coverage pattern is a pure function of the index.
//   - Shard s owns exactly the indices ≡ s (mod Shards); each shard's
//     work list and failure stream ascend by index, and the final digest
//     is an index-ordered merge — byte-identical for any shard count.
//   - Every committed run merges into its shard's aggregate at once, and
//     stat sums are exact (rounded once, when the Summary is built), so
//     the aggregate too is the same for any shard count.
//
// On top of that sits the durability layer (Policy, Spec.Checkpoint):
// per-run deadlines reap hung rigs into typed timeouts, infra-class
// failures retry with seed-derived backoff, and a CRC-guarded checkpoint
// file lets Resume continue a killed campaign from its per-shard
// watermarks — with a digest byte-identical to the uninterrupted run,
// which the package's property tests enforce.
//
// Every run builds its own engine stack (scheduler, HDL kernel,
// transports) through its RunFunc; runs share nothing mutable, which the
// package's -race tests enforce.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"castanet/internal/cosim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// Cell is one column of the campaign matrix: an experiment paired with a
// fault profile. Run index i executes Matrix[i%len(Matrix)], so a matrix
// of E experiments × F fault profiles is swept every E·F runs and every
// cell sees a fresh derived seed on each revisit.
type Cell struct {
	Experiment string
	Fault      string // fault-profile name; "" is the clean channel
	Run        RunFunc
}

// Name is the cell's digest label.
func (c Cell) Name() string {
	if c.Fault == "" {
		return c.Experiment
	}
	return c.Experiment + "/" + c.Fault
}

// RunFunc executes one verification run. It must elaborate every engine it
// needs from scratch (runs execute concurrently and share nothing), honour
// ctx so fail-fast cancellation can tear down in-flight couplings (see
// OnCancel), and return nil for a verified run or a deterministic error —
// ideally a typed *cosim.CouplingError — for a failed one.
type RunFunc func(ctx context.Context, r *Run) error

// Run is the per-run context handed to a RunFunc.
type Run struct {
	Index uint64
	Seed  uint64 // sim.DeriveSeed(campaign seed, Index)
	Shard int
	Cell  Cell
	// Deadline is the supervision policy's per-run wall-clock budget, 0
	// when unsupervised. Rigs thread it into their coupling watchdog
	// config so a hung transport trips inside the run, before the
	// supervisor has to reap the whole attempt from outside.
	Deadline time.Duration

	agg      *agg
	reg      *obs.Registry
	cover    *obs.CoverRegistry // fresh per attempt when coverage is on
	coverage bool
	prof     *obs.RunProfile // fresh per attempt when profiling is on
	profile  bool
	phases   *obs.PhaseProfile // shared live phase accumulator, may be nil
	value    any
}

// RNG returns a fresh generator over the run's derived stream. Every call
// restarts the stream, so a RunFunc normally calls it once.
func (r *Run) RNG() *sim.RNG { return sim.NewRNG(r.Seed) }

// Observe streams one named observation into the campaign aggregate
// (count/sum/min/max per stat) and, when the campaign is instrumented,
// into the registry histogram "campaign.stat.<name>".
func (r *Run) Observe(stat string, v float64) {
	r.agg.observe(stat, v)
	if r.reg != nil {
		r.reg.Histogram("campaign.stat."+stat, histBounds...).Observe(v)
	}
}

// ObserveWall records a wall-clock-dependent measurement — retry counts,
// latencies, anything scheduling can perturb. It feeds the registry
// histogram for live telemetry but stays out of the campaign aggregate,
// which must remain a pure function of the spec so the digest file is
// byte-identical across shard counts and crash/resume boundaries.
func (r *Run) ObserveWall(stat string, v float64) {
	if r.reg != nil {
		r.reg.Histogram("campaign.stat."+stat, histBounds...).Observe(v)
	}
}

// Cover returns the run's functional-coverage registry: a fresh registry
// per attempt when Spec.Coverage is on, nil otherwise (every obs cover
// handle is nil-safe, so rigs instrument unconditionally). The final
// attempt's snapshot merges into the campaign aggregate with the stats,
// so the digest's coverage section is byte-identical at any shard count
// and across kill/resume.
func (r *Run) Cover() *obs.CoverRegistry { return r.cover }

// Profile returns the run's simulation profile: a fresh obs.RunProfile per
// attempt when Spec.Profile is on, nil otherwise (every profile handle is
// nil-safe, so rigs instrument unconditionally). Its deterministic
// activity half merges into the campaign aggregate like coverage, so the
// digest's profile section is byte-identical at any shard count; its
// wall-clock phase half accumulates into the campaign's shared live phase
// profile, which feeds telemetry only and never a digest.
func (r *Run) Profile() *obs.RunProfile { return r.prof }

// SetValue attaches a payload to the run's Result for Spec.OnResult
// collectors. Without a collector the payload is dropped when the run
// finishes, keeping campaign memory bounded.
func (r *Run) SetValue(v any) { r.value = v }

// Spec describes a campaign.
type Spec struct {
	// Name labels reports and replay lines.
	Name string
	// Seed is the campaign master seed every per-run seed derives from.
	Seed uint64
	// Runs is the total number of runs.
	Runs int
	// Shards is the worker count; 0 selects GOMAXPROCS. Run i is
	// statically assigned to shard i % Shards, so each shard's work list
	// is a pure function of (Runs, Shards) — the precondition for the
	// digest's shard-count independence.
	Shards int
	// FailFast cancels the remaining runs at the first failure. In-flight
	// runs are torn down through their contexts; runs not yet started are
	// reported as skipped.
	FailFast bool
	// DigestMax bounds the failure digest (default 16); failures beyond it
	// are counted but not retained.
	DigestMax int
	// Matrix is the experiment × fault-profile cell list.
	Matrix []Cell
	// Policy supervises each run: per-run deadline and classified bounded
	// retry. The zero value disables supervision.
	Policy Policy
	// Checkpoint, when non-empty, is the durable checkpoint file: written
	// atomically every CheckpointEvery committed runs, on cancellation,
	// and at campaign end. Resume continues a campaign from it.
	Checkpoint string
	// CheckpointEvery is the commit cadence between checkpoint writes
	// (default 64).
	CheckpointEvery int
	// Coverage collects functional coverage: every run gets a fresh
	// obs.CoverRegistry (Run.Cover), the final attempt's snapshot merges
	// bin-wise into the campaign aggregate, and the digest gains a
	// deterministic coverage: section. The flag is part of the checkpoint
	// fingerprint — a resume must collect (or not collect) coverage
	// exactly as the checkpointed campaign did.
	Coverage bool
	// Profile collects the simulation profile: every run gets a fresh
	// obs.RunProfile (Run.Profile), the final attempt's deterministic
	// activity snapshot merges entry-wise into the campaign aggregate, and
	// the digest gains a deterministic profile section (activity counts
	// only — wall-clock phase times stay in live telemetry). Like Coverage
	// the flag is part of the checkpoint fingerprint.
	Profile bool
	// Obs, when non-nil, receives campaign metrics — per-shard labelled
	// counters campaign.runs.shardK / campaign.failures.shardK /
	// campaign.retries.shardK / campaign.gaveup.shardK, stat histograms,
	// end-of-campaign stat gauges, checkpoint write counters — and a
	// campaign-level trace with one track per worker. Campaign trace
	// timestamps are wall time (µs), not simulated time: each run restarts
	// its own simulation clocks, so wall time is the only axis shared by
	// all runs.
	Obs *obs.Run
	// OnResult, when non-nil, is invoked serially (in completion order,
	// not index order) with every finished run's Result, including its
	// SetValue payload. Callers needing index order can slot results by
	// Result.Index.
	OnResult func(Result)
}

// ErrSpec classifies campaign parameter errors, so the CLI can map them to
// usage-and-exit-2 like any other flag validation failure.
var ErrSpec = errors.New("campaign: invalid spec")

func (s *Spec) validate() error {
	switch {
	case s.Runs < 1:
		return fmt.Errorf("%w: runs = %d, want >= 1", ErrSpec, s.Runs)
	case s.Shards < 0:
		return fmt.Errorf("%w: shards = %d, want >= 0", ErrSpec, s.Shards)
	case len(s.Matrix) == 0:
		return fmt.Errorf("%w: empty matrix", ErrSpec)
	case s.DigestMax < 0:
		return fmt.Errorf("%w: digest max = %d, want >= 0", ErrSpec, s.DigestMax)
	case s.Policy.RunTimeout < 0:
		return fmt.Errorf("%w: run timeout = %v, want >= 0", ErrSpec, s.Policy.RunTimeout)
	case s.Policy.Retries < 0:
		return fmt.Errorf("%w: retries = %d, want >= 0", ErrSpec, s.Policy.Retries)
	case s.Policy.RetryBase < 0, s.Policy.RetryCap < 0:
		return fmt.Errorf("%w: negative retry backoff", ErrSpec)
	case s.CheckpointEvery < 0:
		return fmt.Errorf("%w: checkpoint every = %d, want >= 0", ErrSpec, s.CheckpointEvery)
	}
	return nil
}

func (s *Spec) shardCount() int {
	if s.Shards > 0 {
		return s.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Spec) digestMax() int {
	if s.DigestMax > 0 {
		return s.DigestMax
	}
	return 16
}

func (s *Spec) checkpointEvery() int {
	if s.CheckpointEvery > 0 {
		return s.CheckpointEvery
	}
	return 64
}

// cellFor returns the matrix cell of run index i.
func (s *Spec) cellFor(i uint64) Cell { return s.Matrix[i%uint64(len(s.Matrix))] }

// Result is one finished run.
type Result struct {
	Index uint64
	Seed  uint64
	Cell  Cell
	Shard int
	Err   error
	Value any
	Wall  time.Duration
	// Attempts is how many times the run executed (1 without retries).
	Attempts int
	// Stats are the run's own observations (Run.Observe), sorted by
	// name. Only Replay fills them; the campaign folds them into its
	// Summary instead.
	Stats []Stat
}

// Failure is one digest entry.
type Failure struct {
	Index uint64
	Seed  uint64
	Cell  string
	Err   error
	// Detail is the run's attached triage bundle (waterfall +
	// flight-recorder dump, see Detailed). It is printed by WriteReport
	// but deliberately kept out of Digest(), whose lines must stay
	// one-per-failure and byte-identical across shard counts.
	Detail string
	// label caches the rendered Label of a failure restored from a
	// checkpoint, whose live error value did not survive the crash.
	label string
}

// Detailer is implemented by errors carrying a multi-line triage detail
// (Detailed wraps any error with one). The campaign engine extracts it
// into Failure.Detail so reports show the failing run's flight-recorder
// dump and cell waterfall without a re-run.
type Detailer interface {
	FailureDetail() string
}

// detailedError attaches a triage detail to a run failure while leaving
// the wrapped error's identity (errors.Is/As, Error text) untouched.
type detailedError struct {
	err    error
	detail string
}

func (e *detailedError) Error() string         { return e.err.Error() }
func (e *detailedError) Unwrap() error         { return e.err }
func (e *detailedError) FailureDetail() string { return e.detail }

// Detailed wraps a run failure with its triage detail. A nil err or
// empty detail passes err through unchanged.
func Detailed(err error, detail string) error {
	if err == nil || detail == "" {
		return err
	}
	return &detailedError{err: err, detail: detail}
}

// Label renders the failure deterministically: typed coupling errors
// collapse to their class/op pair (their full text can carry
// timing-dependent detail), anything else prints its error text, which
// sources are required to keep deterministic.
func (f Failure) Label() string {
	if f.label != "" {
		return f.label
	}
	var ce *cosim.CouplingError
	if errors.As(f.Err, &ce) {
		return fmt.Sprintf("coupling/%s/%s", ce.Class, ce.Op)
	}
	if f.Err == nil {
		return "ok"
	}
	return f.Err.Error()
}

// shardState accumulates one worker's output. The mutex orders the
// worker's commits against checkpoint snapshots; workers never touch each
// other's state.
type shardState struct {
	mu        sync.Mutex
	agg       *agg
	failures  []Failure // ascending by index, bounded by digestMax
	failTotal int
	completed int
	skipped   int
	retried   int
	gaveUp    int
	// done is the shard's runs-completed watermark: the first done indices
	// of the shard's work list are committed (counted, checkpointed, never
	// re-run). Cancelled runs never commit, so the prefix stays contiguous
	// and a resume continues at index shard + done*shards.
	done int
}

// engine is one campaign execution: spec, effective shard count, per-shard
// states and the checkpoint plumbing.
type engine struct {
	spec   *Spec
	shards int
	states []*shardState

	ckCh      chan struct{} // nil without a checkpoint path
	ckEvery   int
	committed atomic.Uint64
	ckMu      sync.Mutex
	ckErr     error
}

// Execute runs the campaign and blocks until every worker has drained or
// been cancelled. The returned Summary is complete even when ctx was
// cancelled mid-campaign; the error reports spec problems only.
func Execute(ctx context.Context, spec Spec) (*Summary, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return execute(ctx, spec, nil)
}

// Resume continues the campaign from Spec.Checkpoint: it validates the
// file's spec fingerprint, restores the per-shard watermarks, aggregates
// and failure lists, and executes only the runs past each watermark, so
// the final digest and aggregate report are byte-identical to an
// uninterrupted run. The shard count is taken from the checkpoint: shard
// s owns the indices ≡ s (mod shards), so a per-shard watermark only
// means something at the count that wrote it. A missing checkpoint file
// degrades to a fresh Execute.
func Resume(ctx context.Context, spec Spec) (*Summary, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Checkpoint == "" {
		return nil, fmt.Errorf("%w: resume requires a checkpoint path", ErrSpec)
	}
	ck, err := loadCheckpoint(spec.Checkpoint)
	if errors.Is(err, os.ErrNotExist) {
		return execute(ctx, spec, nil)
	}
	if err != nil {
		return nil, err
	}
	spec.Shards = ck.shards
	if got := specFingerprint(&spec, ck.shards); got != ck.fingerprint {
		return nil, fmt.Errorf("%w: %s belongs to a different campaign (file fingerprint %016x, this spec %016x)",
			ErrCheckpoint, spec.Checkpoint, ck.fingerprint, got)
	}
	return execute(ctx, spec, ck)
}

func execute(ctx context.Context, spec Spec, resume *checkpointState) (*Summary, error) {
	shards := spec.shardCount()
	if shards > spec.Runs {
		shards = spec.Runs
	}
	if resume != nil {
		shards = resume.shards
	}
	e := &engine{spec: &spec, shards: shards, ckEvery: spec.checkpointEvery()}
	e.states = make([]*shardState, shards)
	for s := range e.states {
		e.states[s] = &shardState{agg: newAgg()}
	}
	if resume != nil {
		e.restore(resume)
	}
	epoch := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Result collection is serialized through one channel so OnResult
	// never observes two runs at once.
	var results chan Result
	collectorDone := make(chan struct{})
	if spec.OnResult != nil {
		results = make(chan Result, shards)
		go func() {
			defer close(collectorDone)
			for res := range results {
				spec.OnResult(res)
			}
		}()
	} else {
		close(collectorDone)
	}

	var ckStop chan struct{}
	ckDone := make(chan struct{})
	if spec.Checkpoint != "" {
		e.ckCh = make(chan struct{}, 1)
		ckStop = make(chan struct{})
		go func() {
			defer close(ckDone)
			e.checkpointLoop(runCtx, ckStop)
		}()
	} else {
		close(ckDone)
	}

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			e.runShard(runCtx, cancel, shard, results, epoch)
		}(s)
	}
	wg.Wait()
	if results != nil {
		close(results)
	}
	<-collectorDone
	if ckStop != nil {
		close(ckStop)
	}
	<-ckDone

	sum := e.summarize(epoch)
	if spec.Checkpoint != "" {
		// The final write covers every commit the summary covers, so
		// resuming a finished campaign reproduces the identical summary
		// without executing a run.
		e.writeCheckpoint()
	}
	e.ckMu.Lock()
	sum.CheckpointErr = e.ckErr
	e.ckMu.Unlock()
	publishSummary(spec.Obs.Reg(), sum)
	return sum, nil
}

// runShard executes the shard's statically assigned indices in ascending
// order, starting past the resume watermark.
func (e *engine) runShard(ctx context.Context, cancel context.CancelFunc,
	shard int, results chan<- Result, epoch time.Time) {

	spec := e.spec
	st := e.states[shard]
	reg := spec.Obs.Reg()
	tr := spec.Obs.Trace()
	track := obs.TrackWorker(shard)
	coverMirror := spec.Obs.CoverReg()
	profMirror := spec.Obs.Prof()
	runsC := reg.ShardCounter("campaign.runs", shard)
	failsC := reg.ShardCounter("campaign.failures", shard)
	retriesC := reg.ShardCounter("campaign.retries", shard)
	gaveupC := reg.ShardCounter("campaign.gaveup", shard)
	wallPS := func() int64 { return time.Since(epoch).Nanoseconds() * 1000 }
	digestMax := spec.digestMax()

	first := uint64(shard) + uint64(st.done)*uint64(e.shards)
	for i := first; i < uint64(spec.Runs); i += uint64(e.shards) {
		if ctx.Err() != nil {
			st.mu.Lock()
			st.skipped++
			st.mu.Unlock()
			continue
		}
		cell := spec.cellFor(i)
		seed := sim.DeriveSeed(spec.Seed, i)
		proto := Run{Index: i, Seed: seed, Shard: shard, Cell: cell,
			coverage: spec.Coverage, profile: spec.Profile, phases: profMirror.PhaseProf()}
		tr.Begin(track, cell.Name(), wallPS())
		started := time.Now()
		out := spec.Policy.supervise(ctx, cell.Run, proto, reg, retriesC, gaveupC)
		wall := time.Since(started)
		tr.End(track, cell.Name(), wallPS())
		runsC.Inc()
		if out.agg != nil {
			// Live telemetry mirror: /coverage tracks closure and /profile
			// tracks hotspots while the campaign runs. Absorb order is
			// scheduling-dependent, which is fine here — the deterministic
			// artifacts are the aggregate's cover and activity, committed
			// below.
			coverMirror.Absorb(out.agg.cover)
			profMirror.AbsorbActivity(out.agg.activity)
		}

		if out.err != nil && ctx.Err() != nil {
			// The run was torn down by cancellation; its error is an
			// artifact of the teardown, not a finding. It never commits,
			// so a resume re-executes it.
			st.mu.Lock()
			st.skipped++
			st.mu.Unlock()
		} else {
			st.mu.Lock()
			if out.err == nil {
				st.completed++
			} else {
				failsC.Inc()
				st.failTotal++
				if len(st.failures) < digestMax {
					f := Failure{Index: i, Seed: seed, Cell: cell.Name(), Err: out.err}
					var det Detailer
					if errors.As(out.err, &det) {
						f.Detail = det.FailureDetail()
					}
					st.failures = append(st.failures, f)
				}
			}
			if out.agg != nil {
				st.agg.merge(out.agg)
			}
			st.retried += out.attempts - 1
			if out.gaveUp {
				st.gaveUp++
			}
			st.done++
			st.mu.Unlock()
			if out.err != nil {
				tr.Emit(track, "fail:"+cell.Name(), wallPS())
				if spec.FailFast {
					cancel()
				}
			}
			e.afterCommit()
		}
		if results != nil {
			results <- Result{Index: i, Seed: seed, Cell: cell, Shard: shard,
				Err: out.err, Value: out.value, Wall: wall, Attempts: out.attempts}
		}
	}
}

// afterCommit ticks the checkpoint cadence.
func (e *engine) afterCommit() {
	if e.ckCh == nil {
		return
	}
	if n := e.committed.Add(1); n%uint64(e.ckEvery) == 0 {
		select {
		case e.ckCh <- struct{}{}:
		default:
		}
	}
}

// checkpointLoop writes checkpoints on cadence signals and flushes once
// on cancellation (the SIGINT/SIGTERM path), then waits for the final
// write issued by execute after the workers drain.
func (e *engine) checkpointLoop(ctx context.Context, stop <-chan struct{}) {
	for {
		select {
		case <-e.ckCh:
			e.writeCheckpoint()
		case <-ctx.Done():
			e.writeCheckpoint()
			<-stop
			return
		case <-stop:
			return
		}
	}
}

// writeCheckpoint snapshots the engine and saves it atomically. Failures
// are retained for the summary instead of aborting the campaign: losing
// durability is an operational warning, not a verification result.
func (e *engine) writeCheckpoint() {
	ck := e.snapshotState()
	err := saveCheckpoint(e.spec.Checkpoint, ck)
	e.ckMu.Lock()
	e.ckErr = err
	e.ckMu.Unlock()
	if reg := e.spec.Obs.Reg(); reg != nil && err == nil {
		reg.Counter("campaign.checkpoint.writes").Inc()
		reg.Gauge("campaign.checkpoint.last_unix").Set(float64(time.Now().Unix()))
		var covered int
		for _, s := range ck.snaps {
			covered += s.done
		}
		reg.Gauge("campaign.checkpoint.runs_covered").Set(float64(covered))
	}
}

// snapshotState copies the committed state under the shard locks.
func (e *engine) snapshotState() *checkpointState {
	ck := &checkpointState{
		fingerprint: specFingerprint(e.spec, e.shards),
		seed:        e.spec.Seed,
		runs:        e.spec.Runs,
		shards:      e.shards,
	}
	for _, st := range e.states {
		st.mu.Lock()
		snap := ckShard{
			done: st.done, completed: st.completed, failTotal: st.failTotal,
			retried: st.retried, gaveUp: st.gaveUp,
			stats: st.agg.sorted(), cover: st.agg.cover, activity: st.agg.activity,
		}
		for _, f := range st.failures {
			snap.failures = append(snap.failures, ckFailure{index: f.Index, seed: f.Seed,
				cell: f.Cell, label: f.Label(), detail: f.Detail})
		}
		st.mu.Unlock()
		ck.snaps = append(ck.snaps, snap)
	}
	return ck
}

// restore loads a checkpoint into the engine before the workers start.
func (e *engine) restore(ck *checkpointState) {
	var total uint64
	for s, snap := range ck.snaps {
		if s >= len(e.states) {
			break
		}
		st := e.states[s]
		st.done = snap.done
		st.completed = snap.completed
		st.failTotal = snap.failTotal
		st.retried = snap.retried
		st.gaveUp = snap.gaveUp
		for i := range snap.stats {
			st.agg.stats[snap.stats[i].name] = &snap.stats[i].statAgg
		}
		st.agg.cover = snap.cover
		st.agg.activity = snap.activity
		for _, f := range snap.failures {
			st.failures = append(st.failures, Failure{Index: f.index, Seed: f.seed,
				Cell: f.cell, Detail: f.detail, label: f.label})
		}
		total += uint64(snap.done)
	}
	e.committed.Store(total)
}

// summarize merges the shard states.
func (e *engine) summarize(epoch time.Time) *Summary {
	spec := e.spec
	sum := &Summary{
		Name:     spec.Name,
		Seed:     spec.Seed,
		Runs:     spec.Runs,
		Shards:   e.shards,
		FailFast: spec.FailFast,
		Wall:     time.Since(epoch),
	}
	merged := newAgg()
	lists := make([][]Failure, 0, len(e.states))
	for _, st := range e.states {
		st.mu.Lock()
		merged.merge(st.agg)
		sum.Completed += st.completed
		sum.Failed += st.failTotal
		sum.Skipped += st.skipped
		sum.Retried += st.retried
		sum.GaveUp += st.gaveUp
		lists = append(lists, st.failures)
		st.mu.Unlock()
	}
	sum.Stats = merged.summary()
	sum.Coverage = merged.cover
	sum.Activity = merged.activity
	sum.Failures = mergeFailures(lists, spec.digestMax())
	return sum
}

// runOne executes the run with panic containment: a panicking rig fails
// its own run instead of killing the campaign's worker pool, and the
// recovered stack rides the failure as its triage detail.
func runOne(ctx context.Context, fn RunFunc, r *Run) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = Detailed(fmt.Errorf("campaign: run panicked: %v", p),
				"panic stack:\n"+string(debug.Stack()))
		}
	}()
	return fn(ctx, r)
}

// mergeFailures k-way merges per-shard ascending failure lists into one
// index-ordered digest, truncated to max entries.
func mergeFailures(lists [][]Failure, max int) []Failure {
	var out []Failure
	heads := make([]int, len(lists))
	for len(out) < max {
		best := -1
		for s, h := range heads {
			if h >= len(lists[s]) {
				continue
			}
			if best < 0 || lists[s][h].Index < lists[best][heads[best]].Index {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// Replay executes exactly the single run a digest line names, serially on
// the calling goroutine, and returns its result with the stats the run
// observed, so a run that ends ok still shows what it saw. The run
// reconstructs the identical (seed, cell) pair the campaign used and
// executes under the same supervision policy — same per-run deadline,
// same retry budget — so a digest line from a timed-out run replays to
// the same typed timeout.
func Replay(ctx context.Context, spec Spec, index uint64) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	if index >= uint64(spec.Runs) {
		return Result{}, fmt.Errorf("%w: replay index %d outside 0..%d", ErrSpec, index, spec.Runs-1)
	}
	cell := spec.cellFor(index)
	reg := spec.Obs.Reg()
	proto := Run{Index: index, Seed: sim.DeriveSeed(spec.Seed, index), Cell: cell,
		coverage: spec.Coverage, profile: spec.Profile, phases: spec.Obs.Prof().PhaseProf()}
	start := time.Now()
	out := spec.Policy.supervise(ctx, cell.Run, proto, reg,
		reg.ShardCounter("campaign.retries", 0), reg.ShardCounter("campaign.gaveup", 0))
	res := Result{Index: index, Seed: proto.Seed, Cell: cell, Err: out.err,
		Value: out.value, Wall: time.Since(start), Attempts: out.attempts}
	if out.agg != nil {
		res.Stats = out.agg.summary()
	}
	return res, nil
}

// OnCancel arranges teardown for an in-flight run: stop is invoked once if
// ctx is cancelled before the returned release function is called. Sources
// bracket a blocking rig run with it so fail-fast cancellation (or the
// supervision deadline, which cancels the run's context) closes the rig's
// coupling transport, turning the blocked run into a typed coupling error
// instead of letting it outlive the campaign. release blocks until the
// watcher goroutine has exited, so no goroutine leaks past the run.
func OnCancel(ctx context.Context, stop func()) (release func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			stop()
		case <-done:
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
