// Command castanet runs the co-verification experiments that reproduce
// the paper's evaluation. Each experiment prints the table recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	castanet -experiment e1 -cells 10000
//	castanet -experiment all
//	castanet -experiment e1 -trace /tmp/e1.json -metrics /tmp/e1.metrics
//	castanet -campaign faults -runs 1000 -shards 8 -seed 7
//	castanet -campaign faults -runs 1000 -seed 7 -replay 412
//	castanet -explore -generations 8 -population 16 -seed 7
//	castanet -explore -generations 8 -population 16 -seed 7 -replay 23
//
// With -metrics the run's counters and gauges are written to the given
// file in plain-text exposition format and a summary table is printed;
// with -trace the run's events are exported as Chrome trace-event JSON
// (open in Perfetto or chrome://tracing); -pprof serves net/http/pprof
// on the given address for the duration of the run, shut down cleanly on
// exit.
//
// -serve exposes the live run over HTTP while it executes: /metrics in
// Prometheus text exposition format, /healthz liveness, and /snapshot as
// a JSON progress stream. -trace-cells N samples the causal cell tracing
// (every Nth cell's per-hop waterfall; default 1 = every cell, 0 = off).
//
// -batch (default on) coalesces the coupling traffic of every rig into
// δ-window batch frames (one 0xCA59 frame per processing window);
// -batch=false restores the one-frame-per-message wire protocol, useful
// for A/B throughput comparison and when debugging at the frame level.
//
// Every HDL kernel runs on the compiled bit-parallel two-state fast path
// (DESIGN.md §18); -no-compiled falls back to the plain event-driven
// kernel. The two modes are observably
// equivalent — same events, deltas, waveforms, coverage and profile — so
// the switch exists for A/B speed measurement and for bisecting a
// suspected fast-path defect, not for correctness.
//
// With -campaign, instead of a single experiment the named verification
// campaign fans -runs seed-derived runs across -shards workers and prints
// a summary report with a replayable failure digest — failed runs attach
// their cell waterfall and flight-recorder dump; -replay re-executes
// exactly one run of the matrix by index. Exit status is 2 for flag
// errors, 1 when a campaign (or replayed run) fails, 0 otherwise.
//
// Long campaigns survive flaky infrastructure: -run-timeout bounds each
// run's wall clock (a hung coupling becomes a typed timeout failure, not
// a stuck worker), -retries re-executes runs that failed with a
// retryable infrastructure error (verification mismatches are never
// retried), and a cell that exhausts its retries repeatedly is
// quarantined — skipped for the rest of the campaign and called out in
// the digest (-no-quarantine opts out). -checkpoint FILE persists
// progress every -checkpoint-every runs and on SIGINT/SIGTERM; -resume
// continues from the file and produces a digest byte-identical to an
// uninterrupted run (-digest FILE writes it for diffing).
//
// -explore replaces the static matrix with the coverage-guided scenario
// explorer: -generations campaigns of -population switch scenarios each,
// where every generation's merged coverage steers the next generation's
// mutations toward uncovered bins (-cover-target focuses the pressure on
// one group). Everything derives from -seed, so the printed generation
// ladder, the -digest file and every discovered failure are byte-identical
// across -shards counts and kill/resume (-checkpoint/-resume work exactly
// as for campaigns); -replay re-executes one exploration run by the run=
// index in the digest.
//
// -coverage collects functional coverage (named bin groups: cell-header
// fields, queue-depth bands, drop causes, UPC actions, sync-window
// extremes) and prints the per-group report; with -campaign the merged
// bins also land in the digest's coverage: section and, under -serve, at
// /coverage. -cover-floor FILE additionally enforces the per-group
// minimum ratios committed for the campaign (see COVER_FLOOR.json);
// an unmet floor exits 1.
//
// -profile collects the simulation profile: a deterministic per-signal /
// per-process hotspot table ("profile " lines, byte-identical for a given
// seed) followed by the wall-clock phase breakdown ("phase " lines, host-
// dependent). With -campaign the shard-exact merged activity also lands in
// the digest's profile section and, under -serve, at /profile together
// with the live phase times and sim-rate gauges. -profile-report FILE
// additionally saves the profile as JSON (implies -profile).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"castanet/internal/campaign"
	"castanet/internal/experiments"
	"castanet/internal/obs"
)

// experiment is one runnable harness: the name accepted by -experiment
// and the function producing its report.
type experiment struct {
	name string
	run  func(cells, seed uint64) fmt.Stringer
}

// table lists the experiments in execution order for -experiment all.
var table = []experiment{
	{"e1", func(c, s uint64) fmt.Stringer { return experiments.E1(c, s) }},
	{"e2", func(c, s uint64) fmt.Stringer { return experiments.E2(min64(c, 800), s) }},
	{"e3", func(c, s uint64) fmt.Stringer { return experiments.E3(min64(c, 1000), s) }},
	{"e4", func(c, s uint64) fmt.Stringer { return experiments.E4(min64(c, 800), s) }},
	{"e5", func(c, s uint64) fmt.Stringer { return experiments.E5(s) }},
	{"e6", func(c, s uint64) fmt.Stringer { return experiments.E6(min64(c, 2000), s) }},
	{"e7", func(c, s uint64) fmt.Stringer { return experiments.E7(min64(c, 500), s) }},
	{"e8", func(c, s uint64) fmt.Stringer { return experiments.E8(s) }},
}

// names returns the valid -experiment values for usage messages.
func names() string {
	var ns []string
	for _, e := range table {
		ns = append(ns, e.name)
	}
	return strings.Join(ns, ", ")
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("experiment", "all", "experiment to run: e1..e8 or all")
		cells      = flag.Uint64("cells", 2000, "total cells for throughput experiments (paper: 10000)")
		seed       = flag.Uint64("seed", 1, "master random seed")
		metrics    = flag.String("metrics", "", "write run metrics (plain-text exposition) to this file")
		trace      = flag.String("trace", "", "write Chrome trace-event JSON to this file")
		pprof      = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		serve      = flag.String("serve", "", "serve live telemetry on this address: /metrics (Prometheus), /healthz, /snapshot")
		traceN     = flag.Int("trace-cells", 1, "causal cell tracing sample: trace every Nth cell (1 = all, 0 = off)")
		camp       = flag.String("campaign", "", "run a verification campaign instead of an experiment: "+experiments.CampaignNames())
		runs       = flag.Int("runs", 256, "campaign: total runs in the matrix")
		shards     = flag.Int("shards", 0, "campaign: worker shards (0 = GOMAXPROCS)")
		replay     = flag.Int64("replay", -1, "campaign: replay this single run index from a failure digest")
		failfast   = flag.Bool("failfast", false, "campaign: cancel remaining runs after the first failure")
		batch      = flag.Bool("batch", true, "coalesce coupling messages per δ-window into batch frames (0xCA59)")
		noCompiled = flag.Bool("no-compiled", false, "run HDL kernels on the plain event-driven kernel instead of the compiled fast path (DESIGN.md §18)")

		runTimeout = flag.Duration("run-timeout", 0, "campaign: per-run wall-clock deadline (0 = none); a hung run fails with a typed timeout")
		retries    = flag.Int("retries", 0, "campaign: retry budget per run for retryable infrastructure failures")
		checkpoint = flag.String("checkpoint", "", "campaign: persist progress to this file for crash/resume")
		ckEvery    = flag.Int("checkpoint-every", 0, "campaign: checkpoint after this many committed runs (0 = default 64)")
		resume     = flag.Bool("resume", false, "campaign: resume from -checkpoint instead of starting over")
		noQuar     = flag.Bool("no-quarantine", false, "campaign: never quarantine cells whose infrastructure keeps dying")
		digest     = flag.String("digest", "", "campaign: write the deterministic digest file here (byte-identical across shard counts and resume)")
		coverage   = flag.Bool("coverage", false, "collect functional coverage and print the per-group bin report")
		coverFloor = flag.String("cover-floor", "", "campaign: enforce the per-group coverage floors committed in this JSON file (implies -coverage; unmet floors exit 1)")
		profile    = flag.Bool("profile", false, "collect the simulation profile: deterministic per-signal/per-process hotspot table plus wall-clock phase breakdown")
		profileOut = flag.String("profile-report", "", "write the simulation profile as JSON to this file (implies -profile)")

		explore     = flag.Bool("explore", false, "run the coverage-guided scenario explorer over the switch rig instead of an experiment")
		generations = flag.Int("generations", 8, "explore: campaign generations to evolve")
		population  = flag.Int("population", 16, "explore: scenarios per generation")
		coverTarget = flag.String("cover-target", "", "explore: focus novelty scoring and mutation pressure on this cover group (empty = all groups)")
	)
	flag.Parse()

	if *traceN < 0 {
		return badFlags("-trace-cells must be non-negative (got %d)", *traceN)
	}

	experiments.Batching(*batch)
	experiments.Compiled(!*noCompiled)
	profiling := *profile || *profileOut != ""

	if *explore && *camp != "" {
		return badFlags("-explore and -campaign are mutually exclusive")
	}
	if profiling && *explore {
		return badFlags("-profile applies to experiments and campaigns, not -explore")
	}
	if *coverTarget != "" && !*explore {
		return badFlags("-cover-target requires -explore")
	}
	if *explore {
		if *coverFloor != "" {
			return badFlags("-cover-floor applies to -campaign; -explore proves coverage via its generation ladder")
		}
		return runExplore(exploreOpts{
			generations: *generations, population: *population,
			shards: *shards, seed: *seed, target: *coverTarget,
			replay:  *replay,
			metrics: *metrics, trace: *trace, serve: *serve, traceCells: *traceN,
			runTimeout: *runTimeout, retries: *retries,
			checkpoint: *checkpoint, checkpointEvery: *ckEvery, resume: *resume,
			noQuarantine: *noQuar, digest: *digest,
		})
	}
	if *camp != "" {
		return runCampaign(campaignOpts{
			name: *camp, runs: *runs, shards: *shards, seed: *seed,
			replay: *replay, failfast: *failfast,
			metrics: *metrics, trace: *trace, serve: *serve, traceCells: *traceN,
			batch:      *batch,
			noCompiled: *noCompiled,
			runTimeout: *runTimeout, retries: *retries,
			checkpoint: *checkpoint, checkpointEvery: *ckEvery, resume: *resume,
			noQuarantine: *noQuar, digest: *digest,
			coverage: *coverage || *coverFloor != "", coverFloor: *coverFloor,
			profile: profiling, profileOut: *profileOut,
		})
	}
	if *coverFloor != "" {
		return badFlags("-cover-floor requires -campaign")
	}

	// Validate the experiment selection before any work starts.
	want := strings.ToLower(*exp)
	var selected []experiment
	for _, e := range table {
		if want == "all" || want == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "castanet: unknown experiment %q (valid: %s, all)\n", *exp, names())
		return 2
	}

	if *pprof != "" {
		stop, err := startPprof(*pprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "castanet: pprof server: %v\n", err)
			return 1
		}
		defer stop()
	}

	// Observability is run-scoped: one registry and one trace ring shared
	// by every selected experiment.
	var run *obs.Run
	if *metrics != "" || *trace != "" || *serve != "" || *coverage || profiling {
		run = obs.NewRun(obs.DefaultTraceCap)
		if *traceN > 0 {
			run.Cells = obs.NewCellTracker(*traceN, 0)
		}
		if profiling {
			run.Profile = obs.NewRunProfile()
		}
		experiments.Observe(run)
	}

	var srv *obs.Server
	if *serve != "" {
		var stop func()
		var err error
		srv, stop, err = startTelemetry(*serve, run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "castanet: telemetry server: %v\n", err)
			return 1
		}
		defer stop()
	}

	for _, e := range selected {
		fmt.Println(e.run(*cells, *seed))
		srv.Beat()
	}

	if run != nil {
		if err := writeRunArtifacts(run, *metrics, *trace); err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 1
		}
		run.Reg().WriteReport(os.Stdout)
		if *coverage {
			obs.WriteCoverText(os.Stdout, run.CoverReg().Snapshot())
		}
		if profiling {
			// The "profile " lines are seed-deterministic (the rig-smoke
			// CI job diffs them); the "phase " lines after them are
			// wall-clock and vary run to run.
			activity := run.Prof().Activity()
			phases := run.Prof().PhaseProf().Snapshot()
			obs.WriteActivityText(os.Stdout, activity, 10)
			obs.WritePhaseText(os.Stdout, phases)
			if *profileOut != "" {
				if err := writeProfileFile(*profileOut, activity, phases); err != nil {
					fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
					return 1
				}
			}
		}
	}
	return 0
}

// writeProfileFile saves the simulation profile as JSON: the deterministic
// activity half plus the wall-clock phase breakdown, mirroring the /profile
// endpoint's document shape.
func writeProfileFile(path string, activity obs.ActivitySnap, phases []obs.PhaseSnap) error {
	doc := struct {
		Activity obs.ActivitySnap `json:"activity"`
		Phases   []obs.PhaseSnap  `json:"phases,omitempty"`
	}{Activity: activity, Phases: phases}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// badFlags reports a campaign flag error the way unknown -experiment is
// reported: a one-line diagnosis on stderr plus exit status 2.
func badFlags(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "castanet: "+format+"\n", args...)
	flag.Usage()
	return 2
}

// campaignOpts carries the parsed -campaign flag set into runCampaign.
type campaignOpts struct {
	name       string
	runs       int
	shards     int
	seed       uint64
	replay     int64
	failfast   bool
	metrics    string
	trace      string
	serve      string
	traceCells int
	batch      bool
	noCompiled bool

	runTimeout      time.Duration
	retries         int
	checkpoint      string
	checkpointEvery int
	resume          bool
	noQuarantine    bool
	digest          string
	coverage        bool
	coverFloor      string
	profile         bool
	profileOut      string
}

// defaultQuarantineAfter is the CLI's quarantine threshold: a cell whose
// runs exhaust their retries this many times in a row is declared dead
// infrastructure and skipped. -no-quarantine opts out.
const defaultQuarantineAfter = 3

// runCampaign executes (or replays one run of) a named campaign matrix.
func runCampaign(o campaignOpts) int {
	matrix, err := experiments.CampaignMatrixCfg(o.name,
		experiments.CampaignConfig{TraceEvery: o.traceCells, Batch: o.batch, NoCompiled: o.noCompiled})
	if err != nil {
		return badFlags("unknown campaign %q (valid: %s)", o.name, experiments.CampaignNames())
	}
	name, runs, shards, seed, replay := o.name, o.runs, o.shards, o.seed, o.replay
	metrics, trace := o.metrics, o.trace
	if runs < 1 {
		return badFlags("-runs must be at least 1 (got %d)", runs)
	}
	if shards < 0 {
		return badFlags("-shards must be non-negative (got %d, 0 = GOMAXPROCS)", shards)
	}
	if replay >= int64(runs) {
		return badFlags("-replay index %d out of range (campaign has %d runs)", replay, runs)
	}
	if o.runTimeout < 0 {
		return badFlags("-run-timeout must be non-negative (got %v)", o.runTimeout)
	}
	if o.retries < 0 {
		return badFlags("-retries must be non-negative (got %d)", o.retries)
	}
	if o.checkpointEvery < 0 {
		return badFlags("-checkpoint-every must be non-negative (got %d)", o.checkpointEvery)
	}
	if o.resume && o.checkpoint == "" {
		return badFlags("-resume requires -checkpoint FILE")
	}
	// Preflight the cover-floor contract so a bad file or a typo'd
	// campaign name fails in milliseconds, not after the whole campaign.
	var floors map[string]float64
	if o.coverFloor != "" {
		all, err := loadCoverFloor(o.coverFloor)
		if err != nil {
			return badFlags("%v", err)
		}
		if floors, err = floorsFor(all, o.coverFloor, name); err != nil {
			return badFlags("%v", err)
		}
	}

	var obsRun *obs.Run
	if metrics != "" || trace != "" || o.serve != "" || o.profile {
		obsRun = obs.NewRun(obs.DefaultTraceCap)
		if o.profile {
			// The campaign's live profile mirror: workers absorb each
			// committed run's activity into it and accumulate phase wall
			// time, so -serve's /profile tracks hotspots mid-campaign.
			obsRun.Profile = obs.NewRunProfile()
		}
	}
	quarantineAfter := defaultQuarantineAfter
	if o.noQuarantine {
		quarantineAfter = 0
	}
	spec := campaign.Spec{
		Name:     name,
		Seed:     seed,
		Runs:     runs,
		Shards:   shards,
		FailFast: o.failfast,
		Matrix:   matrix,
		Obs:      obsRun,
		Policy: campaign.Policy{
			RunTimeout:      o.runTimeout,
			Retries:         o.retries,
			QuarantineAfter: quarantineAfter,
		},
		Checkpoint:      o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
		Coverage:        o.coverage,
		Profile:         o.profile,
	}

	if o.serve != "" {
		srv, stop, err := startTelemetry(o.serve, obsRun)
		if err != nil {
			fmt.Fprintf(os.Stderr, "castanet: telemetry server: %v\n", err)
			return 1
		}
		defer stop()
		// Every finished run is a heartbeat for /healthz liveness.
		spec.OnResult = func(campaign.Result) { srv.Beat() }
	}

	// Ctrl-C or SIGTERM cancels in-flight couplings, writes a final
	// checkpoint when one is configured, and still prints the partial
	// summary, so a long campaign interrupted at run 900 is not wasted.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if replay >= 0 {
		res, err := campaign.Replay(ctx, spec, uint64(replay))
		if err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 2
		}
		fmt.Printf("replay run=%06d seed=0x%016x cell=%s wall=%v\n",
			res.Index, res.Seed, res.Cell.Name(), res.Wall)
		if res.Err != nil {
			fmt.Printf("outcome: FAIL: %v\n", res.Err)
			return 1
		}
		fmt.Println("outcome: ok")
		return 0
	}

	var sum *campaign.Summary
	if o.resume {
		sum, err = campaign.Resume(ctx, spec)
	} else {
		sum, err = campaign.Execute(ctx, spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
		return 2
	}
	sum.WriteReport(os.Stdout)
	if o.coverage {
		obs.WriteCoverText(os.Stdout, sum.Coverage)
	}
	if o.profile {
		// The merged per-run activity is part of the deterministic summary
		// (byte-identical at any shard count); the phase breakdown is the
		// campaign's accumulated wall time and stays out of the digest.
		phases := obsRun.Prof().PhaseProf().Snapshot()
		obs.WriteActivityText(os.Stdout, sum.Activity, 10)
		obs.WritePhaseText(os.Stdout, phases)
		if o.profileOut != "" {
			if err := writeProfileFile(o.profileOut, sum.Activity, phases); err != nil {
				fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
				return 1
			}
		}
	}
	if o.digest != "" {
		if err := writeDigestFile(o.digest, sum); err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 1
		}
	}
	if obsRun != nil {
		if err := writeRunArtifacts(obsRun, metrics, trace); err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 1
		}
	}
	if o.coverFloor != "" {
		if err := checkCoverFloor(floors, name, sum.Coverage); err != nil {
			fmt.Fprintf(os.Stderr, "castanet: %v\n", err)
			return 1
		}
		fmt.Printf("coverage floor met (%s)\n", o.coverFloor)
	}
	if !sum.Clean() {
		return 1
	}
	return 0
}

// writeDigestFile saves the deterministic campaign digest, the file two
// executions of the same spec (including one interrupted and resumed) can
// be diffed by.
func writeDigestFile(path string, sum *campaign.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sum.WriteDigest(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRunArtifacts saves the metrics exposition and the Chrome trace.
func writeRunArtifacts(run *obs.Run, metricsPath, tracePath string) error {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := run.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := run.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := run.Trace().Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "castanet: trace ring dropped %d oldest events\n", d)
		}
	}
	return nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
