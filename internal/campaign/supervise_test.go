package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"castanet/internal/cosim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// attemptLog counts executions per run index across retries.
type attemptLog struct {
	mu sync.Mutex
	n  map[uint64]int
}

func newAttemptLog() *attemptLog { return &attemptLog{n: make(map[uint64]int)} }

func (l *attemptLog) bump(i uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n[i]++
	return l.n[i]
}

func (l *attemptLog) count(i uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n[i]
}

// TestRetryClassification is the acceptance property for the retry layer:
// a deterministic ClassProtocol mismatch is reported after exactly one
// attempt, while a transient ClassTimeout heals on retry, increments the
// campaign.retries counter, and leaves no digest entry.
func TestRetryClassification(t *testing.T) {
	log := newAttemptLog()
	matrix := []Cell{{Experiment: "flaky", Run: func(ctx context.Context, r *Run) error {
		n := log.bump(r.Index)
		switch r.Index {
		case 3: // verification mismatch: the product, never retried
			return &cosim.CouplingError{Class: cosim.ClassProtocol, Op: "entity",
				Err: errors.New("acct mismatch")}
		case 5: // transient infra failure: heals on the second attempt
			if n == 1 {
				return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "recv",
					Err: errors.New("transient")}
			}
			return nil
		}
		return nil
	}}}
	run := obs.NewRun(obs.DefaultTraceCap)
	sum, err := Execute(context.Background(), Spec{
		Name: "retry", Seed: 7, Runs: 8, Shards: 2, Matrix: matrix, Obs: run,
		Policy: Policy{Retries: 2, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := log.count(3); got != 1 {
		t.Errorf("mismatch run executed %d times, want exactly 1 attempt", got)
	}
	if got := log.count(5); got != 2 {
		t.Errorf("transient run executed %d times, want 2 (fail + healed retry)", got)
	}
	if sum.Failed != 1 {
		t.Errorf("failed = %d, want 1 (only the mismatch)", sum.Failed)
	}
	if sum.Completed != 7 {
		t.Errorf("completed = %d, want 7", sum.Completed)
	}
	if sum.Retried != 1 {
		t.Errorf("retried = %d, want 1", sum.Retried)
	}
	if sum.GaveUp != 0 {
		t.Errorf("gaveUp = %d, want 0", sum.GaveUp)
	}
	if !strings.Contains(sum.Digest(), "run=000003") || strings.Contains(sum.Digest(), "run=000005") {
		t.Errorf("digest must carry the mismatch and not the healed run:\n%s", sum.Digest())
	}
	var retries uint64
	for shard := 0; shard < sum.Shards; shard++ {
		retries += run.Reg().Counter(obs.ShardName("campaign.retries", shard)).Value()
	}
	if retries != 1 {
		t.Errorf("campaign.retries counters sum to %d, want 1", retries)
	}
}

// TestRetryBudgetExhaustion: a run that stays transient consumes exactly
// Retries+1 attempts, is recorded as a failure, and counts as a give-up.
func TestRetryBudgetExhaustion(t *testing.T) {
	log := newAttemptLog()
	matrix := []Cell{{Experiment: "down", Run: func(ctx context.Context, r *Run) error {
		log.bump(r.Index)
		return &cosim.CouplingError{Class: cosim.ClassClosed, Op: "dial",
			Err: errors.New("link down")}
	}}}
	sum, err := Execute(context.Background(), Spec{
		Name: "exhaust", Seed: 1, Runs: 2, Shards: 1, Matrix: matrix,
		Policy: Policy{Retries: 3, RetryBase: time.Microsecond, RetryCap: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := log.count(0); got != 4 {
		t.Errorf("run 0 executed %d times, want Retries+1 = 4", got)
	}
	if sum.Failed != 2 || sum.GaveUp != 2 {
		t.Errorf("failed/gaveUp = %d/%d, want 2/2", sum.Failed, sum.GaveUp)
	}
	if sum.Retried != 6 {
		t.Errorf("retried = %d, want 6 (3 extra attempts per run)", sum.Retried)
	}
}

// deadInfraMatrix pairs a healthy cell with one whose infrastructure is
// permanently down: every run fails with a retryable coupling timeout and
// exhausts its retry budget.
func deadInfraMatrix() []Cell {
	good := func(ctx context.Context, r *Run) error {
		r.Observe("draw", float64(r.RNG().Uint64()%1000))
		return nil
	}
	bad := func(ctx context.Context, r *Run) error {
		return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "connect",
			Err: errors.New("rig never came up")}
	}
	return []Cell{
		{Experiment: "synth", Run: good},
		{Experiment: "synth", Fault: "dead", Run: bad},
	}
}

// deadInfraSpec runs deadInfraMatrix with one fast retry per run.
func deadInfraSpec(shards int) Spec {
	return Spec{
		Name:   "dead-infra",
		Seed:   5,
		Runs:   40,
		Shards: shards,
		Matrix: deadInfraMatrix(),
		Policy: Policy{Retries: 1, RetryBase: time.Microsecond, RetryCap: time.Microsecond},
	}
}

// TestGiveUpDigestDeterministicAcrossShards: a cell whose infrastructure
// stays down keeps failing — every one of its runs spends its retry and
// counts as a failed give-up — and the counts, stats and digest are the
// same at any shard count.
func TestGiveUpDigestDeterministicAcrossShards(t *testing.T) {
	run := func(shards int) *Summary {
		sum, err := Execute(context.Background(), deadInfraSpec(shards))
		if err != nil {
			t.Fatalf("Execute(shards=%d): %v", shards, err)
		}
		return sum
	}
	ref := run(1)
	if ref.Completed != 20 || ref.Failed != 20 || ref.GaveUp != 20 || ref.Retried != 20 {
		t.Fatalf("serial reference: completed=%d failed=%d gaveup=%d retried=%d, want 20/20/20/20",
			ref.Completed, ref.Failed, ref.GaveUp, ref.Retried)
	}
	if !strings.HasPrefix(ref.Digest(), "run=000001 ") || len(ref.Failures) != 16 {
		t.Fatalf("digest keeps %d failures, want the first 16 from run 1:\n%s", len(ref.Failures), ref.Digest())
	}
	for _, shards := range []int{4, 8} {
		assertSameSummary(t, run(shards), ref, fmt.Sprintf("shards=%d", shards))
	}
}

// TestDeadCellKeepsFailing: nothing stops a cell whose infrastructure
// stays down; every one of its runs is a counted failure to the end of
// the campaign, and the healthy cell beside it is unaffected.
func TestDeadCellKeepsFailing(t *testing.T) {
	spec := deadInfraSpec(4)
	spec.DigestMax = spec.Runs
	sum, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if sum.Failed != 20 || sum.Completed != 20 {
		t.Errorf("failed=%d completed=%d, want 20/20", sum.Failed, sum.Completed)
	}
	if len(sum.Failures) != 20 {
		t.Fatalf("digest keeps %d failures, want all 20", len(sum.Failures))
	}
	for k, f := range sum.Failures {
		if f.Cell != "synth/dead" || f.Index != uint64(2*k+1) {
			t.Errorf("failure %d: run %d cell %q, want run %d cell synth/dead", k, f.Index, f.Cell, 2*k+1)
		}
	}
}

// TestGiveUpResumeDeterministic: a checkpointed campaign with give-ups,
// interrupted mid-flight, resumes to the identical digest and counts.
func TestGiveUpResumeDeterministic(t *testing.T) {
	base := deadInfraSpec(4)
	ref, err := Execute(context.Background(), base)
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	interrupted := base
	interrupted.Checkpoint = filepath.Join(t.TempDir(), "campaign.ckpt")
	interrupted.CheckpointEvery = 2
	interrupted.OnResult = interruptAfter(12, cancel)
	partial, err := Execute(ctx, interrupted)
	cancel()
	if err != nil {
		t.Fatalf("interrupted Execute: %v", err)
	}
	if partial.Skipped == 0 {
		t.Fatal("interruption skipped nothing; test is vacuous")
	}

	resumed := base
	resumed.Checkpoint = interrupted.Checkpoint
	res, err := Resume(context.Background(), resumed)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	assertSameSummary(t, res, ref, "give-up resume")
}

// TestHungRunReaped is the acceptance property for the per-run deadline:
// a RunFunc blocked forever on a channel is reaped within timeout plus a
// small epsilon, fails with the typed "coupling/timeout/run" label, and
// the worker proceeds to the rest of its runs.
func TestHungRunReaped(t *testing.T) {
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) }) // release the abandoned goroutine
	matrix := []Cell{{Experiment: "hung", Run: func(ctx context.Context, r *Run) error {
		if r.Index == 2 {
			<-hang // ignores ctx on purpose: worst-case rig
		}
		return nil
	}}}
	const timeout = 150 * time.Millisecond
	start := time.Now()
	sum, err := Execute(context.Background(), Spec{
		Name: "hung", Seed: 1, Runs: 6, Shards: 2, Matrix: matrix,
		Policy: Policy{RunTimeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > timeout+2*time.Second {
		t.Errorf("campaign took %v; hung run was not reaped near the %v deadline", elapsed, timeout)
	}
	if sum.Failed != 1 || sum.Completed != 5 {
		t.Fatalf("failed/completed = %d/%d, want 1/5 (worker must move past the hung run)",
			sum.Failed, sum.Completed)
	}
	f := sum.Failures[0]
	if f.Index != 2 {
		t.Errorf("failing index = %d, want 2", f.Index)
	}
	if f.Label() != "coupling/timeout/run" {
		t.Errorf("label = %q, want coupling/timeout/run", f.Label())
	}
	var ce *cosim.CouplingError
	if !errors.As(f.Err, &ce) || ce.Class != cosim.ClassTimeout {
		t.Errorf("reaped failure is not a typed ClassTimeout: %v", f.Err)
	}
}

// TestDeadlineCancelsRunContext: a cooperative run sees its context
// expire at the deadline, so OnCancel teardown fires without waiting for
// the reaper.
func TestDeadlineCancelsRunContext(t *testing.T) {
	torndown := make(chan struct{}, 1)
	matrix := []Cell{{Experiment: "coop", Run: func(ctx context.Context, r *Run) error {
		release := OnCancel(ctx, func() { torndown <- struct{}{} })
		defer release()
		select {
		case <-ctx.Done():
			return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "recv", Err: ctx.Err()}
		case <-time.After(5 * time.Second):
			return nil
		}
	}}}
	sum, err := Execute(context.Background(), Spec{
		Name: "coop", Seed: 1, Runs: 1, Shards: 1, Matrix: matrix,
		Policy: Policy{RunTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-torndown:
	default:
		t.Error("OnCancel teardown never fired at the deadline")
	}
	if sum.Failed != 1 || sum.Failures[0].Label() != "coupling/timeout/run" {
		t.Errorf("deadline failure = %+v, want coupling/timeout/run", sum.Failures)
	}
}

// TestPanicStackCaptured: the recovered stack of a panicking run rides
// the failure's triage detail.
func TestPanicStackCaptured(t *testing.T) {
	matrix := []Cell{{Experiment: "boom", Run: func(ctx context.Context, r *Run) error {
		if r.Index == 1 {
			explodeForStackTest()
		}
		return nil
	}}}
	sum, err := Execute(context.Background(), Spec{
		Name: "boom", Seed: 1, Runs: 4, Shards: 2, Matrix: matrix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("failed = %d, want 1", sum.Failed)
	}
	d := sum.Failures[0].Detail
	if !strings.Contains(d, "explodeForStackTest") || !strings.Contains(d, "goroutine") {
		t.Errorf("panic detail lacks the captured stack:\n%s", d)
	}
}

func explodeForStackTest() { panic("rig exploded") }

// TestBackoffDeterministic: the jittered schedule is a pure function of
// the run seed and stays within [d/2, d] of the capped exponential step.
func TestBackoffDeterministic(t *testing.T) {
	p := Policy{RetryBase: 10 * time.Millisecond, RetryCap: 80 * time.Millisecond}
	seq := func() []time.Duration {
		jr := sim.NewRNG(sim.DeriveSeed(0xfeed, backoffSalt))
		var out []time.Duration
		for attempt := 0; attempt < 6; attempt++ {
			out = append(out, p.backoff(attempt, jr))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff attempt %d: %v vs %v — schedule not deterministic", i, a[i], b[i])
		}
		step := p.RetryBase << uint(i)
		if step > p.RetryCap || step <= 0 {
			step = p.RetryCap
		}
		if a[i] < step/2 || a[i] > step {
			t.Errorf("backoff attempt %d = %v outside [%v, %v]", i, a[i], step/2, step)
		}
	}
}

// TestRetriedRunStatsCountedOnce: only the final attempt's observations
// reach the aggregate.
func TestRetriedRunStatsCountedOnce(t *testing.T) {
	log := newAttemptLog()
	matrix := []Cell{{Experiment: "stats", Run: func(ctx context.Context, r *Run) error {
		r.Observe("probe", 1)
		if log.bump(r.Index) == 1 {
			return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "recv", Err: errors.New("flake")}
		}
		return nil
	}}}
	sum, err := Execute(context.Background(), Spec{
		Name: "stats", Seed: 3, Runs: 4, Shards: 2, Matrix: matrix,
		Policy: Policy{Retries: 1, RetryBase: time.Microsecond, RetryCap: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 4 || sum.Retried != 4 {
		t.Fatalf("completed/retried = %d/%d, want 4/4", sum.Completed, sum.Retried)
	}
	for _, s := range sum.Stats {
		if s.Name == "probe" && s.Count != 4 {
			t.Errorf("probe count = %d, want 4 (one per run, retries' observations dropped)", s.Count)
		}
	}
}

// TestReplayHonoursSupervision (satellite): a digest line born from a
// reaped hung run replays — under the same policy — to the same
// ClassTimeout label, and the replay terminates instead of hanging.
func TestReplayHonoursSupervision(t *testing.T) {
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	matrix := []Cell{{Experiment: "hung", Run: func(ctx context.Context, r *Run) error {
		if r.Index%3 == 0 {
			<-hang
		}
		return nil
	}}}
	spec := Spec{
		Name: "replay-hung", Seed: 5, Runs: 6, Shards: 3, Matrix: matrix,
		Policy: Policy{RunTimeout: 100 * time.Millisecond},
	}
	sum, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Fatal("no timed-out failures to replay")
	}
	f := sum.Failures[0]
	res, err := Replay(context.Background(), spec, f.Index)
	if err != nil {
		t.Fatal(err)
	}
	got := Failure{Index: res.Index, Seed: res.Seed, Cell: res.Cell.Name(), Err: res.Err}
	if got.Label() != f.Label() || got.Label() != "coupling/timeout/run" {
		t.Errorf("replay label %q, campaign label %q, want coupling/timeout/run both",
			got.Label(), f.Label())
	}
	// Replay with retries against an attempt-dependent transient: the
	// replayed run heals the same way the campaign run did.
	log := newAttemptLog()
	flaky := Spec{
		Name: "replay-flaky", Seed: 5, Runs: 4,
		Matrix: []Cell{{Experiment: "flaky", Run: func(ctx context.Context, r *Run) error {
			if log.bump(r.Index) == 1 {
				return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "recv", Err: errors.New("flake")}
			}
			return nil
		}}},
		Policy: Policy{Retries: 1, RetryBase: time.Microsecond, RetryCap: time.Microsecond},
	}
	res, err = Replay(context.Background(), flaky, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.Attempts != 2 {
		t.Errorf("flaky replay err=%v attempts=%d, want nil/2", res.Err, res.Attempts)
	}
}

// TestSupervisionSpecValidation maps bad policy knobs to ErrSpec.
func TestSupervisionSpecValidation(t *testing.T) {
	good := Spec{Runs: 1, Matrix: syntheticMatrix()}
	for name, mut := range map[string]func(*Spec){
		"negative timeout": func(s *Spec) { s.Policy.RunTimeout = -time.Second },
		"negative retries": func(s *Spec) { s.Policy.Retries = -1 },
		"negative backoff": func(s *Spec) { s.Policy.RetryBase = -time.Second },
		"negative cadence": func(s *Spec) { s.CheckpointEvery = -1 },
	} {
		s := good
		mut(&s)
		if _, err := Execute(context.Background(), s); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", name, err)
		}
	}
}

// TestSupervisedDigestMatchesUnsupervised: with an idle policy (deadline
// generous, no transient failures), supervision must not perturb the
// digest or the aggregates.
func TestSupervisedDigestMatchesUnsupervised(t *testing.T) {
	ref := executeSynthetic(t, 3)
	sup, err := Execute(context.Background(), Spec{
		Name: "synthetic", Seed: 42, Runs: 200, Shards: 3, Matrix: syntheticMatrix(),
		Policy: Policy{RunTimeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sup.Digest() != ref.Digest() {
		t.Errorf("supervised digest differs from unsupervised:\n%s\nvs\n%s", sup.Digest(), ref.Digest())
	}
	if fmt.Sprintf("%+v", sup.Stats) != fmt.Sprintf("%+v", ref.Stats) {
		t.Errorf("supervised stats differ from unsupervised")
	}
}
