package campaign

import (
	"fmt"
	"io"
	"strings"
	"time"

	"castanet/internal/obs"
)

// Summary is the end-of-campaign report.
type Summary struct {
	Name     string
	Seed     uint64
	Runs     int
	Shards   int
	FailFast bool

	Completed int
	Failed    int // total failures, not truncated to the digest
	Skipped   int // runs cancelled before or during teardown
	Retried   int // extra attempts spent on transient infra failures
	GaveUp    int // runs whose final failure was still transient
	Wall      time.Duration

	// Stats are sorted by name; each Sum is the exact sum of the
	// observations rounded once, so it too is independent of the shard
	// count and of crash/resume boundaries.
	Stats    []Stat
	Failures []Failure // first DigestMax failures, ascending by run index
	// Coverage is the campaign's merged functional-coverage snapshot
	// (empty unless Spec.Coverage): groups and points sorted by name,
	// bins in definition order, hit counts summed bin-wise over every
	// committed run — a pure function of the spec, independent of shard
	// count and crash/resume boundaries.
	Coverage []obs.CoverGroupSnap
	// Activity is the campaign's merged simulation activity profile (empty
	// unless Spec.Profile): per-signal event counts and per-process run
	// counts summed entry-wise over every committed run. Integer-derived
	// like Coverage, so the digest's profile section is byte-identical at
	// any shard count and across kill/resume. Wall-clock phase times are
	// deliberately absent — they live in telemetry only.
	Activity obs.ActivitySnap
	// CheckpointErr is the last checkpoint write failure, nil when
	// durability worked (or was not requested). It is an operational
	// warning and deliberately does not affect Clean.
	CheckpointErr error
}

// Clean reports whether every run completed verified.
func (s *Summary) Clean() bool {
	return s.Failed == 0 && s.Skipped == 0
}

// Digest renders the canonical failure digest: one line per retained
// failure, ascending by run index. Everything in it — indices, derived
// seeds, cell names, failure labels — is a pure function of the campaign
// spec, so the digest is byte-identical across shard counts and across
// crash/resume boundaries; wall-clock figures deliberately never appear.
func (s *Summary) Digest() string {
	var b strings.Builder
	for _, f := range s.Failures {
		fmt.Fprintf(&b, "run=%06d seed=0x%016x cell=%s fail=%s\n",
			f.Index, f.Seed, f.Cell, f.Label())
	}
	return b.String()
}

// WriteDigest writes the deterministic campaign digest file: identity,
// outcome counts, aggregate stats, the coverage (obs.WriteCoverDigest) and
// profile sections and the failure digest — and nothing wall-clock or
// scheduling dependent, not even the shard count, so two executions of
// the same spec (at any shard count, or interrupted and resumed) produce
// byte-identical files.
func (s *Summary) WriteDigest(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "campaign %s seed=%d runs=%d\n",
		s.Name, s.Seed, s.Runs); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "completed=%d failed=%d\n",
		s.Completed, s.Failed); err != nil {
		return err
	}
	for _, st := range s.Stats {
		if _, err := fmt.Fprintf(w, "stat %s n=%d sum=%g min=%g max=%g\n",
			st.Name, st.Count, st.Sum, st.Min, st.Max); err != nil {
			return err
		}
	}
	if err := obs.WriteCoverDigest(w, s.Coverage); err != nil {
		return err
	}
	if err := s.writeProfileSection(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, s.Digest())
	return err
}

// writeProfileSection renders the digest's activity profile: the "profile "
// lines of obs.WriteActivityText, truncated to the top 10 hotspots. Only
// deterministic integer-derived activity appears here; the wall-clock phase
// breakdown stays out of the digest by construction.
func (s *Summary) writeProfileSection(w io.Writer) error {
	if s.Activity.Empty() {
		return nil
	}
	return obs.WriteActivityText(w, s.Activity, 10)
}

// ReplayArgs returns the castanet argument string that reproduces failure
// f in isolation.
func (s *Summary) ReplayArgs(f Failure) string {
	return fmt.Sprintf("-campaign %s -runs %d -seed %d -replay %d",
		s.Name, s.Runs, s.Seed, f.Index)
}

// WriteReport writes the operator summary: headline, outcome counts,
// aggregated stats, and the failure digest with one replay line per entry.
func (s *Summary) WriteReport(w io.Writer) error {
	rate := 0.0
	if secs := s.Wall.Seconds(); secs > 0 {
		rate = float64(s.Completed+s.Failed) / secs
	}
	if _, err := fmt.Fprintf(w, "campaign %q: %d runs on %d shards in %v (%.0f runs/s)\n",
		s.Name, s.Runs, s.Shards, s.Wall.Round(time.Millisecond), rate); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  completed=%d failed=%d skipped=%d retried=%d gaveup=%d failfast=%v seed=%d\n",
		s.Completed, s.Failed, s.Skipped, s.Retried, s.GaveUp, s.FailFast, s.Seed); err != nil {
		return err
	}
	if s.CheckpointErr != nil {
		if _, err := fmt.Fprintf(w, "  warning: checkpoint write failed: %v\n", s.CheckpointErr); err != nil {
			return err
		}
	}
	for _, st := range s.Stats {
		if _, err := fmt.Fprintf(w, "  stat %-18s n=%-7d mean=%-12.6g min=%-12.6g max=%.6g\n",
			st.Name, st.Count, st.Mean(), st.Min, st.Max); err != nil {
			return err
		}
	}
	for _, g := range s.Coverage {
		hit, total := g.Covered()
		if _, err := fmt.Fprintf(w, "  cover %-24s %d/%d bins (%.1f%%)\n",
			g.Name, hit, total, 100*g.Ratio()); err != nil {
			return err
		}
	}
	if !s.Activity.Empty() {
		events, twoState, runs, deltaRuns := s.Activity.Totals()
		purity := 0.0
		if events > 0 {
			purity = 100 * float64(twoState) / float64(events)
		}
		if _, err := fmt.Fprintf(w, "  profile signals=%d events=%d purity=%.1f%% processes=%d runs=%d delta_runs=%d\n",
			len(s.Activity.Signals), events, purity, len(s.Activity.Processes), runs, deltaRuns); err != nil {
			return err
		}
	}
	if s.Failed > 0 {
		if _, err := fmt.Fprintf(w, "failure digest (first %d of %d):\n", len(s.Failures), s.Failed); err != nil {
			return err
		}
		for _, f := range s.Failures {
			if _, err := fmt.Fprintf(w, "  run=%06d seed=0x%016x cell=%s fail=%s\n",
				f.Index, f.Seed, f.Cell, f.Label()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "    replay: castanet %s\n", s.ReplayArgs(f)); err != nil {
				return err
			}
			// The attached triage bundle (cell waterfall + flight-recorder
			// dump), indented under its digest entry.
			if f.Detail != "" {
				for _, line := range strings.Split(strings.TrimRight(f.Detail, "\n"), "\n") {
					if _, err := fmt.Fprintf(w, "    | %s\n", line); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
