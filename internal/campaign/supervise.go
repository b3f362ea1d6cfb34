package campaign

import (
	"context"
	"fmt"
	"time"

	"castanet/internal/cosim"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// Policy configures per-run supervision: a wall-clock deadline that reaps
// hung runs and a bounded retry budget for infrastructure failures. The
// zero value disables both, leaving the engine's original synchronous
// behaviour.
type Policy struct {
	// RunTimeout is the per-run wall-clock deadline. A run still blocked
	// past it fails with a typed cosim.ClassTimeout coupling error
	// ("coupling/timeout/run" in the digest) and the worker moves on; the
	// run's context carries the deadline so OnCancel teardown unwinds the
	// rig. 0 disables the deadline.
	RunTimeout time.Duration
	// Retries is how many times an infra-class failure (cosim.Retryable:
	// timeouts, closed links, marked errors) is re-attempted with the
	// identical derived seed. Verification mismatches are never retried.
	Retries int
	// RetryBase and RetryCap bound the jittered exponential backoff
	// between attempts (defaults 10ms and 1s). The jitter stream derives
	// from the run seed, so a replayed run backs off identically.
	RetryBase time.Duration
	RetryCap  time.Duration
}

func (p Policy) retryBase() time.Duration {
	if p.RetryBase > 0 {
		return p.RetryBase
	}
	return 10 * time.Millisecond
}

func (p Policy) retryCap() time.Duration {
	if p.RetryCap > 0 {
		return p.RetryCap
	}
	return time.Second
}

// reapGrace is how long a timed-out run gets to unwind through its
// OnCancel teardown before the worker abandons the attempt goroutine and
// moves on. The goroutine drains into its buffered channel whenever the
// teardown finally completes.
const reapGrace = 100 * time.Millisecond

// backoffSalt derives the retry-jitter stream from the run seed without
// colliding with the run's own stimulus stream (which derives from the
// campaign seed, not the run seed).
const backoffSalt = 0xb0ccf0ff

// outcome is the consumed result of one supervised run: the final
// attempt's error, payload and aggregate (nil when the attempt was
// abandoned at the deadline — an abandoned goroutine may still be
// writing, so nothing of it is read).
type outcome struct {
	err      error
	value    any
	agg      *agg
	attempts int
	gaveUp   bool // final error was still retryable after the budget ran out
}

// supervise executes one run under the policy: fresh Run state per
// attempt, deadline reaping, classified bounded retry. proto carries the
// immutable run identity (index, seed, shard, cell).
func (p Policy) supervise(ctx context.Context, fn RunFunc, proto Run,
	reg *obs.Registry, retriesC, gaveupC *obs.Counter) outcome {

	var out outcome
	var jitter *sim.RNG
	for attempt := 0; ; attempt++ {
		// Every attempt gets a private Run copy and aggregate: a
		// timed-out attempt's goroutine may outlive the attempt, and its
		// stray writes must never reach state the campaign reads.
		r := proto
		r.Deadline = p.RunTimeout
		r.agg = newAgg()
		r.reg = reg
		if r.coverage {
			r.cover = obs.NewCoverRegistry()
		}
		if r.profile {
			// The attempt's activity is private (it must be discardable if
			// the attempt is reaped or retried), but the wall-clock phases
			// accumulate into the campaign's shared live profile — wall time
			// was spent either way and never enters a digest.
			r.prof = &obs.RunProfile{Phases: r.phases}
		}
		err, reaped := p.attempt(ctx, fn, &r)
		out.attempts = attempt + 1
		out.err = err
		out.value, out.agg = nil, nil
		if !reaped {
			// Fold the attempt's coverage and activity into its aggregate: a
			// reaped attempt's registry may still be written by the abandoned
			// goroutine, so — like the stats — only a consumed attempt's
			// snapshots survive.
			r.agg.cover = r.cover.Snapshot()
			r.agg.activity = r.prof.Activity()
			out.value, out.agg = r.value, r.agg
		}
		switch {
		case err == nil, ctx.Err() != nil, !cosim.Retryable(err):
			return out
		case attempt >= p.Retries:
			out.gaveUp = true
			gaveupC.Inc()
			return out
		}
		retriesC.Inc()
		if jitter == nil {
			jitter = sim.NewRNG(sim.DeriveSeed(proto.Seed, backoffSalt))
		}
		if !sleepCtx(ctx, p.backoff(attempt, jitter)) {
			return out
		}
	}
}

// attempt runs fn once. Without a deadline it runs synchronously on the
// worker, exactly as the unsupervised engine did. With one, it runs on a
// reaper-supervised goroutine: if the deadline expires the attempt is
// given reapGrace to unwind (the run ctx is already cancelled, so
// OnCancel teardown is in flight), then abandoned, and the attempt
// reports a deterministic typed timeout. reaped is true when the
// attempt's Run state must not be consumed.
func (p Policy) attempt(ctx context.Context, fn RunFunc, r *Run) (err error, reaped bool) {
	if p.RunTimeout <= 0 {
		return runOne(ctx, fn, r), false
	}
	actx, cancel := context.WithTimeout(ctx, p.RunTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runOne(actx, fn, r) }()
	select {
	case err := <-done:
		return err, false
	case <-actx.Done():
	}
	grace := time.NewTimer(reapGrace)
	defer grace.Stop()
	select {
	case <-done:
		// The teardown unwound the run within the grace window. Its error
		// is an artifact of the cancellation; the deterministic finding is
		// the deadline itself, so report that instead.
	case <-grace.C:
	}
	if ctx.Err() != nil {
		// The campaign, not the deadline, cancelled the run: surface a
		// teardown error so the worker accounts the run as skipped.
		return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "run", Err: ctx.Err()}, true
	}
	return &cosim.CouplingError{Class: cosim.ClassTimeout, Op: "run",
		Err: fmt.Errorf("run %d exceeded the per-run deadline %v: %w",
			r.Index, p.RunTimeout, context.DeadlineExceeded)}, true
}

// backoff returns the jittered exponential delay before retry attempt+1:
// half the capped exponential step fixed, half drawn from the run's
// seed-derived jitter stream, so schedules decorrelate across runs yet
// replay deterministically.
func (p Policy) backoff(attempt int, jitter *sim.RNG) time.Duration {
	base, limit := p.retryBase(), p.retryCap()
	d := base << uint(attempt)
	if d <= 0 || d > limit {
		d = limit
	}
	half := d / 2
	return half + time.Duration(jitter.Uint64()%uint64(half+1))
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports whether
// the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
