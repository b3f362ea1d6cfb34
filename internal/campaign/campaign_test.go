package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"strings"
	"testing"
	"time"

	"castanet/internal/cosim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// syntheticMatrix is a deterministic stand-in for the real rigs: run
// outcomes and observations derive only from the run's seed, exactly the
// contract real sources must honour. Roughly 1 in 8 runs fails, a subset
// with a typed coupling error to exercise digest labelling.
func syntheticMatrix() []Cell {
	run := func(ctx context.Context, r *Run) error {
		rng := r.RNG()
		v := rng.Uint64()
		if v%8 == 0 {
			if v%16 == 0 {
				return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "recv", Err: errors.New("synthetic")}
			}
			return fmt.Errorf("synthetic failure %d", v%4)
		}
		r.Observe("draw", float64(v%1000))
		r.Observe("frac", syntheticFrac(v))
		r.Observe("index", float64(r.Index))
		return nil
	}
	return []Cell{
		{Experiment: "synth", Run: run},
		{Experiment: "synth", Fault: "noise", Run: run},
	}
}

func executeSynthetic(t *testing.T, shards int) *Summary {
	t.Helper()
	sum, err := Execute(context.Background(), Spec{
		Name:   "synthetic",
		Seed:   42,
		Runs:   200,
		Shards: shards,
		Matrix: syntheticMatrix(),
	})
	if err != nil {
		t.Fatalf("Execute(shards=%d): %v", shards, err)
	}
	return sum
}

// TestDigestDeterministicAcrossShards is the core determinism property:
// the failure digest must be byte-identical no matter how many workers
// the campaign fanned across.
func TestDigestDeterministicAcrossShards(t *testing.T) {
	ref := executeSynthetic(t, 1)
	if ref.Failed == 0 {
		t.Fatal("synthetic matrix produced no failures; test is vacuous")
	}
	if ref.Completed+ref.Failed != ref.Runs {
		t.Fatalf("run accounting: completed %d + failed %d != runs %d",
			ref.Completed, ref.Failed, ref.Runs)
	}
	for _, shards := range []int{2, 3, 8} {
		got := executeSynthetic(t, shards)
		if got.Digest() != ref.Digest() {
			t.Errorf("digest differs between 1 and %d shards:\n-- 1 shard --\n%s-- %d shards --\n%s",
				shards, ref.Digest(), shards, got.Digest())
		}
		if got.Completed != ref.Completed || got.Failed != ref.Failed {
			t.Errorf("shards=%d: completed/failed = %d/%d, want %d/%d",
				shards, got.Completed, got.Failed, ref.Completed, ref.Failed)
		}
	}
}

// syntheticFrac is the synthetic runs' non-integral observation: thirds
// over five decades, whose float64 running sum rounds at almost every
// add, so a sum merged in another grouping would round differently.
func syntheticFrac(v uint64) float64 { return float64(v%100000) / 3 }

// TestAggregateMergeMatchesSerial checks the streaming shard-merge against
// the 1-shard serial reference at 3 and 7 shards: every field of every
// stat, the non-integral "frac" sum included, is bit-identical, and that
// sum is the correctly rounded exact sum of the observations.
func TestAggregateMergeMatchesSerial(t *testing.T) {
	ref := executeSynthetic(t, 1)
	for _, shards := range []int{3, 7} {
		got := executeSynthetic(t, shards)
		if len(ref.Stats) != len(got.Stats) {
			t.Fatalf("shards=%d: stat count %d, want %d", shards, len(got.Stats), len(ref.Stats))
		}
		for i, want := range ref.Stats {
			s := got.Stats[i]
			if s.Name != want.Name || s.Count != want.Count ||
				math.Float64bits(s.Sum) != math.Float64bits(want.Sum) ||
				s.Min != want.Min || s.Max != want.Max {
				t.Errorf("shards=%d: stat %q: got %+v, want %+v", shards, want.Name, s, want)
			}
		}
		// The "index" stat observes every completed run's index exactly
		// once, so its count independently cross-checks the completion
		// tally.
		for _, s := range got.Stats {
			if s.Name == "index" && int(s.Count) != got.Completed {
				t.Errorf("shards=%d: index stat count %d != completed %d", shards, s.Count, got.Completed)
			}
		}
	}

	// Recompute the frac observations outside the engine and sum them
	// exactly at a precision no float64 sum can exceed.
	exact := new(big.Float).SetPrec(4096)
	for i := uint64(0); i < 200; i++ {
		if v := sim.NewRNG(sim.DeriveSeed(42, i)).Uint64(); v%8 != 0 {
			exact.Add(exact, big.NewFloat(syntheticFrac(v)))
		}
	}
	want, _ := exact.Float64()
	for _, s := range ref.Stats {
		if s.Name == "frac" && s.Sum != want {
			t.Errorf("frac sum %v, want the correctly rounded %v", s.Sum, want)
		}
	}
}

// TestReplayReproducesDigestFailure re-executes a digest line's run in
// isolation and expects the identical failure.
func TestReplayReproducesDigestFailure(t *testing.T) {
	spec := Spec{Name: "synthetic", Seed: 42, Runs: 200, Shards: 4, Matrix: syntheticMatrix()}
	sum, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Fatal("no failures to replay")
	}
	for _, f := range sum.Failures[:2] {
		res, err := Replay(context.Background(), spec, f.Index)
		if err != nil {
			t.Fatalf("Replay(%d): %v", f.Index, err)
		}
		if res.Err == nil {
			t.Fatalf("replay of run %d succeeded; campaign recorded %q", f.Index, f.Label())
		}
		if got := (Failure{Index: res.Index, Seed: res.Seed, Cell: res.Cell.Name(), Err: res.Err}); got.Label() != f.Label() {
			t.Errorf("replay failure %q != campaign failure %q", got.Label(), f.Label())
		}
		if res.Seed != f.Seed {
			t.Errorf("replay seed %#x != campaign seed %#x", res.Seed, f.Seed)
		}
	}
	// A successful run replays clean too.
	if _, err := Replay(context.Background(), spec, uint64(spec.Runs)); err == nil {
		t.Error("out-of-range replay index accepted")
	}
}

// TestFailFastCancellation: the first failure must cancel every in-flight
// and pending run, tear blocked runs down through OnCancel, and leave no
// campaign goroutine behind.
func TestFailFastCancellation(t *testing.T) {
	entered := make(chan struct{}, 64)
	stopped := make(chan struct{}, 64)
	matrix := []Cell{{Experiment: "block", Run: func(ctx context.Context, r *Run) error {
		if r.Index == 0 {
			// Fail only once a peer run is demonstrably blocked, so the
			// teardown path is exercised, not raced past.
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
			}
			return errors.New("first failure")
		}
		// Model a rig blocked on a coupling: only teardown releases it.
		blocked := make(chan struct{})
		release := OnCancel(ctx, func() { close(blocked) })
		entered <- struct{}{}
		select {
		case <-blocked:
		case <-time.After(5 * time.Second):
			release()
			return errors.New("cancellation never arrived")
		}
		release()
		stopped <- struct{}{}
		return errors.New("torn down")
	}}}
	sum, err := Execute(context.Background(), Spec{
		Name: "failfast", Seed: 1, Runs: 32, Shards: 4, FailFast: true, Matrix: matrix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Errorf("failed = %d, want exactly the triggering run", sum.Failed)
	}
	if sum.Completed != 0 {
		t.Errorf("completed = %d, want 0 (every other run is cancelled)", sum.Completed)
	}
	if sum.Skipped != sum.Runs-1 {
		t.Errorf("skipped = %d, want %d", sum.Skipped, sum.Runs-1)
	}
	select {
	case <-stopped:
	default:
		t.Error("no blocked run was torn down via OnCancel")
	}
	assertNoCampaignGoroutines(t)
}

// waitUntil polls cond on a ticker until it holds or the deadline timer
// fires — no clock-comparison spinning, one blocking select per poll, so
// it stays cheap and honest under CI load.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, report func() string) {
	t.Helper()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if cond() {
			return
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			if cond() {
				return
			}
			t.Fatalf("condition not reached within %v: %s", timeout, report())
		}
	}
}

// assertNoCampaignGoroutines scans goroutine stacks for leaked campaign
// frames, waiting briefly since exiting goroutines unwind asynchronously.
func assertNoCampaignGoroutines(t *testing.T) {
	t.Helper()
	var stacks string
	leakFrames := []string{
		"campaign.(*engine).runShard",
		"campaign.(*engine).checkpointLoop",
		"campaign.OnCancel",
		"campaign.execute.func",
	}
	waitUntil(t, 2*time.Second, func() bool {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		for _, frame := range leakFrames {
			if strings.Contains(stacks, frame) {
				return false
			}
		}
		return true
	}, func() string {
		return "campaign goroutines leaked after Execute returned:\n" + stacks
	})
}

// TestContextCancelMidCampaign: external cancellation (a user's Ctrl-C)
// stops scheduling and still returns a consistent partial summary.
func TestContextCancelMidCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	matrix := []Cell{{Experiment: "slow", Run: func(ctx context.Context, r *Run) error {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	}}}
	go func() {
		<-started
		cancel()
	}()
	sum, err := Execute(ctx, Spec{Name: "cancel", Seed: 1, Runs: 64, Shards: 4, Matrix: matrix})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Errorf("cancelled runs were recorded as failures: %d", sum.Failed)
	}
	if sum.Completed+sum.Skipped != sum.Runs {
		t.Errorf("accounting: completed %d + skipped %d != runs %d", sum.Completed, sum.Skipped, sum.Runs)
	}
	if sum.Skipped == 0 {
		t.Error("cancellation skipped nothing; test raced to completion")
	}
	assertNoCampaignGoroutines(t)
}

// TestOnResultDeliversEveryRun: the collector sees each run exactly once
// with its SetValue payload, serially.
func TestOnResultDeliversEveryRun(t *testing.T) {
	got := make(map[uint64]int)
	matrix := []Cell{{Experiment: "val", Run: func(ctx context.Context, r *Run) error {
		r.SetValue(int(r.Index) * 3)
		return nil
	}}}
	_, err := Execute(context.Background(), Spec{
		Name: "collect", Seed: 9, Runs: 50, Shards: 5, Matrix: matrix,
		OnResult: func(res Result) { got[res.Index] = res.Value.(int) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("collector saw %d results, want 50", len(got))
	}
	for i, v := range got {
		if v != int(i)*3 {
			t.Errorf("run %d payload = %d, want %d", i, v, int(i)*3)
		}
	}
}

// TestPanicContainment: a panicking rig fails its run, not the pool.
func TestPanicContainment(t *testing.T) {
	matrix := []Cell{{Experiment: "panic", Run: func(ctx context.Context, r *Run) error {
		if r.Index == 7 {
			panic("rig exploded")
		}
		return nil
	}}}
	sum, err := Execute(context.Background(), Spec{Name: "panic", Seed: 1, Runs: 16, Shards: 4, Matrix: matrix})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 || sum.Completed != 15 {
		t.Fatalf("failed/completed = %d/%d, want 1/15", sum.Failed, sum.Completed)
	}
	if !strings.Contains(sum.Failures[0].Label(), "panicked") {
		t.Errorf("panic failure label = %q", sum.Failures[0].Label())
	}
}

// TestSpecValidation maps every bad parameter to ErrSpec.
func TestSpecValidation(t *testing.T) {
	good := Spec{Runs: 1, Matrix: syntheticMatrix()}
	for name, mut := range map[string]func(*Spec){
		"zero runs":       func(s *Spec) { s.Runs = 0 },
		"negative shards": func(s *Spec) { s.Shards = -1 },
		"empty matrix":    func(s *Spec) { s.Matrix = nil },
		"negative digest": func(s *Spec) { s.DigestMax = -1 },
	} {
		s := good
		mut(&s)
		if _, err := Execute(context.Background(), s); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", name, err)
		}
	}
	if _, err := Execute(context.Background(), good); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestOnCancelSemantics: stop fires exactly once on cancellation, never
// after release, and release always joins the watcher.
func TestOnCancelSemantics(t *testing.T) {
	// Released before cancellation: stop must not fire.
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{}, 2)
	release := OnCancel(ctx, func() { fired <- struct{}{} })
	release()
	cancel()
	select {
	case <-fired:
		t.Error("stop fired after release")
	case <-time.After(50 * time.Millisecond):
	}

	// Cancelled while in flight: stop fires, release still returns.
	ctx2, cancel2 := context.WithCancel(context.Background())
	release2 := OnCancel(ctx2, func() { fired <- struct{}{} })
	cancel2()
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("stop never fired on cancellation")
	}
	release2()
}

// TestCampaignObservability: per-shard counters and worker tracks land in
// the run's registry and trace.
func TestCampaignObservability(t *testing.T) {
	run := obs.NewRun(obs.DefaultTraceCap)
	sum, err := Execute(context.Background(), Spec{
		Name: "obs", Seed: 42, Runs: 40, Shards: 2, Matrix: syntheticMatrix(), Obs: run,
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalRuns uint64
	for shard := 0; shard < sum.Shards; shard++ {
		totalRuns += run.Reg().Counter(obs.ShardName("campaign.runs", shard)).Value()
	}
	if int(totalRuns) != sum.Runs {
		t.Errorf("shard run counters sum to %d, want %d", totalRuns, sum.Runs)
	}
	events := run.Trace().Events()
	tracks := map[string]bool{}
	for _, ev := range events {
		tracks[ev.Track] = true
	}
	for shard := 0; shard < sum.Shards; shard++ {
		if !tracks[obs.TrackWorker(shard)] {
			t.Errorf("no trace events on %s", obs.TrackWorker(shard))
		}
	}
}
