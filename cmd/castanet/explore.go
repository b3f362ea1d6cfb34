package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"castanet/internal/campaign"
	"castanet/internal/experiments"
	"castanet/internal/explore"
	"castanet/internal/obs"
)

// exploreOpts carries the parsed -explore flag set into runExplore.
type exploreOpts struct {
	generations int
	population  int
	shards      int
	seed        uint64
	target      string
	replay      int64

	metrics    string
	trace      string
	serve      string
	traceCells int
	noCompiled bool

	runTimeout      time.Duration
	retries         int
	checkpoint      string
	checkpointEvery int
	resume          bool
	noQuarantine    bool
	digest          string
}

// runExplore executes (or replays one run of) a coverage-guided
// exploration of the switch scenario space. Exit status mirrors
// -campaign: 2 for operator errors, 1 when the exploration was
// interrupted or found verification failures, 0 clean.
func runExplore(o exploreOpts) int {
	switch {
	case o.generations < 1:
		return badFlags("-generations must be at least 1 (got %d)", o.generations)
	case o.population < 1:
		return badFlags("-population must be at least 1 (got %d)", o.population)
	case o.shards < 0:
		return badFlags("-shards must be non-negative (got %d, 0 = GOMAXPROCS)", o.shards)
	case o.replay >= int64(o.generations)*int64(o.population):
		return badFlags("-replay index %d out of range (exploration has %d runs)",
			o.replay, o.generations*o.population)
	case o.runTimeout < 0:
		return badFlags("-run-timeout must be non-negative (got %v)", o.runTimeout)
	case o.retries < 0:
		return badFlags("-retries must be non-negative (got %d)", o.retries)
	case o.checkpointEvery < 0:
		return badFlags("-checkpoint-every must be non-negative (got %d)", o.checkpointEvery)
	case o.resume && o.checkpoint == "":
		return badFlags("-resume requires -checkpoint FILE")
	}

	var obsRun *obs.Run
	if o.metrics != "" || o.trace != "" || o.serve != "" {
		obsRun = obs.NewRun(obs.DefaultTraceCap)
	}
	quarantineAfter := defaultQuarantineAfter
	if o.noQuarantine {
		quarantineAfter = 0
	}
	spec := explore.Spec{
		Space: explore.NewSwitchSpace(experiments.CampaignConfig{
			TraceEvery: o.traceCells, NoCompiled: o.noCompiled}),
		Seed:        o.seed,
		Generations: o.generations,
		Population:  o.population,
		Shards:      o.shards,
		Target:      o.target,
		Policy: campaign.Policy{
			RunTimeout:      o.runTimeout,
			Retries:         o.retries,
			QuarantineAfter: quarantineAfter,
		},
		Checkpoint:      o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
		Obs:             obsRun,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if o.replay >= 0 {
		res, err := explore.Replay(ctx, spec, uint64(o.replay))
		if err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 2
		}
		gen := uint64(o.replay) / uint64(o.population)
		slot := uint64(o.replay) % uint64(o.population)
		fmt.Printf("replay run=%06d gen=%03d slot=%03d seed=0x%016x cell=%s wall=%v\n",
			o.replay, gen, slot, res.Seed, res.Cell.Name(), res.Wall)
		if res.Err != nil {
			fmt.Printf("outcome: FAIL: %v\n", res.Err)
			return 1
		}
		fmt.Println("outcome: ok")
		return 0
	}

	var srv *obs.Server
	if o.serve != "" {
		var stop func()
		var err error
		srv, stop, err = startTelemetry(o.serve, obsRun)
		if err != nil {
			fmt.Fprintf(os.Stderr, "castanet: telemetry server: %v\n", err)
			return 1
		}
		defer stop()
		spec.OnResult = func(campaign.Result) { srv.Beat() }
	}
	// Live generation ladder on stdout: a long exploration shows its
	// advance as it commits, and each commit is a liveness heartbeat.
	spec.OnGeneration = func(g explore.GenStat) {
		fmt.Printf("gen=%03d covered=%d/%d new=%d accepted=%d rejected=%d failures=%d\n",
			g.Gen, g.Covered, g.Total, g.New, g.Accepted, g.Rejected, g.Failures)
		srv.Beat()
	}

	var res *explore.Result
	var err error
	if o.resume {
		res, err = explore.Resume(ctx, spec)
	} else {
		res, err = explore.Execute(ctx, spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
		if errors.Is(err, explore.ErrSpec) || errors.Is(err, explore.ErrState) {
			return 2
		}
		return 1
	}
	res.WriteReport(os.Stdout)
	obs.WriteCoverText(os.Stdout, res.Coverage)
	if o.digest != "" {
		if err := writeExploreDigest(o.digest, res); err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 1
		}
	}
	if obsRun != nil {
		if err := writeRunArtifacts(obsRun, o.metrics, o.trace); err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 1
		}
	}
	if !res.Complete || res.FailTotal > 0 {
		return 1
	}
	return 0
}

// writeExploreDigest saves the deterministic exploration digest, the file
// two executions of the same spec (at any shard count, including one
// killed and resumed) can be diffed by.
func writeExploreDigest(path string, res *explore.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteDigest(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
