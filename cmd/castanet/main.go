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
//	castanet -campaign tablefaults -runs 260 -coverage -digest e8.digest
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
// Every rig's coupling carries the messages of one δ-window as one unit:
// one frame and one round trip per processing window.
//
// Every HDL kernel runs on the packed two-state data plane (DESIGN.md
// §18), which the kernel-equivalence tests hold observably identical to
// the plain nine-value event kernel — same events, deltas, waveforms,
// coverage and profile.
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
// retried; a run still failing after its retries counts as failed).
// -checkpoint FILE persists progress every -checkpoint-every runs and on
// SIGINT/SIGTERM; -resume continues from the file. -digest FILE writes
// the deterministic digest for diffing: it is byte-identical across
// shard counts and to an uninterrupted run.
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
// additionally saves the profile as JSON (implies -profile). Experiments
// that publish no process runs (E4, E6, E8) cannot be profiled: when none
// of the selected experiments does, castanet exits 2 naming them instead
// of printing a table of zeros.
package main

import (
	"context"
	"encoding/json"
	"errors"
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

// experiment is one runnable harness: the name accepted by -experiment,
// the most cells it runs (0: no cap) and the function producing its
// report from the run's factory.
type experiment struct {
	name     string
	maxCells uint64
	run      func(f experiments.Factory, cells, seed uint64) fmt.Stringer
}

// table lists the experiments in execution order for -experiment all.
var table = []experiment{
	{"e1", 0, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E1(c, s) }},
	{"e2", 800, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E2(c, s) }},
	{"e3", 1000, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E3(c, s) }},
	{"e4", 800, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E4(c, s) }},
	{"e5", 0, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E5(s) }},
	{"e6", 2000, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E6(c, s) }},
	{"e7", 500, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E7(c, s) }},
	{"e8", 0, func(f experiments.Factory, c, s uint64) fmt.Stringer { return f.E8(s) }},
}

// cells returns the cell count e runs for a -cells request, saying on
// stderr when its cap lowers the request: no experiment changes a flag's
// value without printing it.
func (e experiment) cells(requested uint64) uint64 {
	if e.maxCells == 0 || requested <= e.maxCells {
		return requested
	}
	fmt.Fprintf(os.Stderr, "castanet: %s: -cells %d capped at %d\n", e.name, requested, e.maxCells)
	return e.maxCells
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
		exp      = flag.String("experiment", "all", "experiment to run: e1..e8 or all")
		cells    = flag.Uint64("cells", 2000, "total cells for throughput experiments (paper: 10000)")
		seed     = flag.Uint64("seed", 1, "master random seed")
		metrics  = flag.String("metrics", "", "write run metrics (plain-text exposition) to this file")
		trace    = flag.String("trace", "", "write Chrome trace-event JSON to this file")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		serve    = flag.String("serve", "", "serve live telemetry on this address: /metrics (Prometheus), /healthz, /snapshot")
		traceN   = flag.Int("trace-cells", 1, "causal cell tracing sample: trace every Nth cell (1 = all, 0 = off)")
		camp     = flag.String("campaign", "", "run a verification campaign instead of an experiment: "+experiments.CampaignNames())
		runs     = flag.Int("runs", 256, "campaign: total runs in the matrix")
		shards   = flag.Int("shards", 0, "campaign: worker shards (0 = GOMAXPROCS)")
		replay   = flag.Int64("replay", -1, "campaign: replay this single run index from a failure digest")
		failfast = flag.Bool("failfast", false, "campaign: cancel remaining runs after the first failure")

		runTimeout = flag.Duration("run-timeout", 0, "campaign: per-run wall-clock deadline (0 = none); a hung run fails with a typed timeout")
		retries    = flag.Int("retries", 0, "campaign: retry budget per run for retryable infrastructure failures")
		checkpoint = flag.String("checkpoint", "", "campaign: persist progress to this file for crash/resume")
		ckEvery    = flag.Int("checkpoint-every", 0, "campaign: checkpoint after this many committed runs (0 = default 64)")
		resume     = flag.Bool("resume", false, "campaign: resume from -checkpoint instead of starting over")
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

	profiling := *profile || *profileOut != ""
	sup := supervision{runTimeout: *runTimeout, retries: *retries,
		checkpoint: *checkpoint, checkpointEvery: *ckEvery, resume: *resume}

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
			supervision: sup, digest: *digest,
		})
	}
	if *camp != "" {
		return runCampaign(campaignOpts{
			name: *camp, runs: *runs, shards: *shards, seed: *seed,
			replay: *replay, failfast: *failfast,
			metrics: *metrics, trace: *trace, serve: *serve, traceCells: *traceN,
			supervision: sup, digest: *digest,
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
	}
	factory := experiments.Factory{Obs: run}

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

	// An experiment that publishes no process runs has nothing for the
	// activity table; a table of zeros would pass for a measurement.
	var unprofiled []string
	for _, e := range selected {
		before := processRuns(run)
		fmt.Println(e.run(factory, e.cells(*cells), *seed))
		srv.Beat()
		if profiling && processRuns(run) == before {
			unprofiled = append(unprofiled, e.name)
		}
	}
	if profiling && processRuns(run) == 0 {
		fmt.Fprintf(os.Stderr, "castanet: -profile: no process runs published by %s\n", strings.Join(unprofiled, ", "))
		return 2
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

// processRuns totals the process runs the run's profile has published.
func processRuns(run *obs.Run) uint64 {
	_, _, runs, _ := run.Prof().Activity().Totals()
	return runs
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

	supervision
	digest     string
	coverage   bool
	coverFloor string
	profile    bool
	profileOut string
}

// supervision is the flag block -campaign and -explore share: the per-run
// policy and the checkpoint file the run persists to.
type supervision struct {
	runTimeout      time.Duration
	retries         int
	checkpoint      string
	checkpointEvery int
	resume          bool
}

// policy validates the supervision flags and returns the campaign policy
// they select.
func (s supervision) policy() (campaign.Policy, error) {
	switch {
	case s.runTimeout < 0:
		return campaign.Policy{}, fmt.Errorf("-run-timeout must be non-negative (got %v)", s.runTimeout)
	case s.retries < 0:
		return campaign.Policy{}, fmt.Errorf("-retries must be non-negative (got %d)", s.retries)
	case s.checkpointEvery < 0:
		return campaign.Policy{}, fmt.Errorf("-checkpoint-every must be non-negative (got %d)", s.checkpointEvery)
	case s.resume && s.checkpoint == "":
		return campaign.Policy{}, errors.New("-resume requires -checkpoint FILE")
	}
	return campaign.Policy{RunTimeout: s.runTimeout, Retries: s.retries}, nil
}

// runCampaign executes (or replays one run of) a named campaign matrix.
func runCampaign(o campaignOpts) int {
	matrix, err := experiments.CampaignMatrixCfg(o.name,
		experiments.CampaignConfig{TraceEvery: o.traceCells})
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
	policy, err := o.policy()
	if err != nil {
		return badFlags("%v", err)
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
	spec := campaign.Spec{
		Name:            name,
		Seed:            seed,
		Runs:            runs,
		Shards:          shards,
		FailFast:        o.failfast,
		Matrix:          matrix,
		Obs:             obsRun,
		Policy:          policy,
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
		for _, st := range res.Stats {
			fmt.Printf("stat %s n=%d sum=%g min=%g max=%g\n", st.Name, st.Count, st.Sum, st.Min, st.Max)
		}
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
