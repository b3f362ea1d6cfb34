package explore

import (
	"fmt"
	"io"
	"strings"
	"time"

	"castanet/internal/obs"
)

// WriteDigest writes the deterministic exploration digest: identity, the
// generation ladder, the merged coverage section (obs.WriteCoverDigest,
// shared with the campaign digest) and one line per retained failure. Nothing wall-clock,
// shard- or scheduling-dependent appears, so two executions of the same
// spec — at any shard count, including one killed and resumed — produce
// byte-identical files. The property tests and the explore-smoke CI job
// diff exactly this output.
func (r *Result) WriteDigest(w io.Writer) error {
	target := r.Target
	if target == "" {
		target = "*"
	}
	if _, err := fmt.Fprintf(w, "explore %s seed=%d generations=%d population=%d target=%s\n",
		r.Space, r.Seed, r.Generations, r.Population, target); err != nil {
		return err
	}
	for _, g := range r.Ladder {
		if _, err := fmt.Fprintf(w, "gen=%03d covered=%d/%d new=%d accepted=%d rejected=%d failures=%d\n",
			g.Gen, g.Covered, g.Total, g.New, g.Accepted, g.Rejected, g.Failures); err != nil {
			return err
		}
	}
	hit, total := obs.CoverTotals(r.Coverage)
	if _, err := fmt.Fprintf(w, "explore covered=%d total=%d generations-run=%d failures=%d\n",
		hit, total, len(r.Ladder), r.FailTotal); err != nil {
		return err
	}
	if err := obs.WriteCoverDigest(w, r.Coverage); err != nil {
		return err
	}
	for _, f := range r.Failures {
		if _, err := fmt.Fprintf(w, "run=%06d gen=%03d slot=%03d seed=0x%016x cell=%s fail=%s\n",
			f.Index, f.Gen, f.Slot, f.Seed, f.Cell, f.Label); err != nil {
			return err
		}
	}
	return nil
}

// ReplayArgs returns the castanet argument string that reproduces
// failure f in isolation.
func (r *Result) ReplayArgs(f Failure) string {
	args := fmt.Sprintf("-explore -seed %d -generations %d -population %d",
		r.Seed, r.Generations, r.Population)
	if r.Target != "" {
		args += fmt.Sprintf(" -cover-target %s", r.Target)
	}
	return fmt.Sprintf("%s -replay %d", args, f.Index)
}

// WriteReport writes the operator summary: headline, ladder, per-group
// coverage, and the failure digest with one replay line per entry.
func (r *Result) WriteReport(w io.Writer) error {
	hit, total := obs.CoverTotals(r.Coverage)
	state := "complete"
	if !r.Complete {
		state = fmt.Sprintf("interrupted after %d/%d generations", len(r.Ladder), r.Generations)
	}
	if _, err := fmt.Fprintf(w, "explore %q: %d generations × %d scenarios in %v (%s)\n",
		r.Space, r.Generations, r.Population, r.Wall.Round(time.Millisecond), state); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  seed=%d covered=%d/%d bins failures=%d\n",
		r.Seed, hit, total, r.FailTotal); err != nil {
		return err
	}
	for _, g := range r.Ladder {
		if _, err := fmt.Fprintf(w, "  gen=%03d covered=%d/%d new=%-4d accepted=%-4d rejected=%-4d failures=%d\n",
			g.Gen, g.Covered, g.Total, g.New, g.Accepted, g.Rejected, g.Failures); err != nil {
			return err
		}
	}
	for _, g := range r.Coverage {
		h, t := g.Covered()
		if _, err := fmt.Fprintf(w, "  cover %-24s %d/%d bins (%.1f%%)\n",
			g.Name, h, t, 100*g.Ratio()); err != nil {
			return err
		}
	}
	if r.FailTotal > 0 {
		if _, err := fmt.Fprintf(w, "failure digest (first %d of %d):\n", len(r.Failures), r.FailTotal); err != nil {
			return err
		}
		for _, f := range r.Failures {
			if _, err := fmt.Fprintf(w, "  run=%06d gen=%03d slot=%03d seed=0x%016x cell=%s fail=%s\n",
				f.Index, f.Gen, f.Slot, f.Seed, f.Cell, f.Label); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "    replay: castanet %s\n", r.ReplayArgs(f)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Digest renders WriteDigest to a string (test convenience).
func (r *Result) Digest() string {
	var b strings.Builder
	r.WriteDigest(&b)
	return b.String()
}
