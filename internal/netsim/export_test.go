package netsim

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"castanet/internal/sim"
)

// Series returns the captured samples.
func (p *Probe) Series() []Sample { return p.series }

// Report writes a summary table of all probes.
func (s *ProbeSet) Report(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := s.Names()
	sort.Strings(names)
	if _, err := fmt.Fprintf(bw, "%-28s %10s %12s %12s %12s %12s\n",
		"probe", "n", "mean", "stddev", "min", "max"); err != nil {
		return err
	}
	for _, name := range names {
		a := s.probes[name].Stats()
		if _, err := fmt.Fprintf(bw, "%-28s %10d %12.5g %12.5g %12.5g %12.5g\n",
			name, a.N(), a.Mean(), a.Stddev(), a.Min(), a.Max()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// InstrumentQueue samples a queue's occupancy and drop count into probes
// every interval.
func InstrumentQueue(net *Network, q *Queue, set *ProbeSet, prefix string, every sim.Duration) {
	occ := set.Get(prefix + ".occupancy")
	drops := set.Get(prefix + ".drops")
	var tick func()
	tick = func() {
		occ.Record(net.Now(), float64(q.Len()))
		drops.Record(net.Now(), float64(q.Dropped))
		net.Sched.After(every, tick)
	}
	net.Sched.After(every, tick)
}

// Names returns the probe names in creation order.
func (s *ProbeSet) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the current queue length (not counting the packet in
// service).
func (q *Queue) Len() int { return len(q.fifo) }
