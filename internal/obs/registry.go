package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The hot path is a
// single atomic add; a nil *Counter is an always-cheap no-op so
// instrumented code can run without a registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric holding the latest value of a quantity such
// as a queue depth or a ratio. Set is a single atomic store.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic hot paths. Bucket i
// counts observations x <= Bounds[i]; one extra overflow bucket counts
// everything above the last bound. Unlike sim.Histogram it is safe for
// concurrent use, which the coupling transports need.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must ascend")
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Count returns the count of bucket i; i == len(Bounds()) is the overflow
// bucket.
func (h *Histogram) Count(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.buckets[i].Load()
}

// N returns the total number of observations.
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Kind distinguishes metric types in snapshots.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind for the exposition format.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Snapshot is one metric's state at snapshot time.
type Snapshot struct {
	Name  string
	Kind  Kind
	Value float64 // counter count or gauge value; histogram observation count
	// Histogram-only fields.
	Sum     float64
	Bounds  []float64
	Buckets []uint64 // len(Bounds)+1, last is overflow
}

// metric is a registered named metric of any kind.
type metric struct {
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics. Registration (get-or-create) takes a
// mutex; the metric operations themselves are lock-free atomics. A nil
// *Registry hands out nil metrics, so a disabled deployment costs one nil
// test per instrumentation site.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) get(name string, kind Kind, make func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
		}
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// ShardName labels a metric with the campaign shard that owns it:
// "campaign.runs" on shard 2 becomes "campaign.runs.shard2". The label is
// a name suffix (not a separate dimension) so sharded counters sort
// together in the exposition format and the run report.
func ShardName(name string, shard int) string {
	return fmt.Sprintf("%s.shard%d", name, shard)
}

// ShardCounter returns the per-shard labelled counter for name.
func (r *Registry) ShardCounter(name string, shard int) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(ShardName(name, shard))
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, KindCounter, func() *metric {
		return &metric{kind: KindCounter, c: &Counter{}}
	}).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, KindGauge, func() *metric {
		return &metric{kind: KindGauge, g: &Gauge{}}
	}).g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use (later calls may pass no
// bounds; if they do pass bounds, the original buckets win).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, KindHistogram, func() *metric {
		return &metric{kind: KindHistogram, h: newHistogram(bounds)}
	}).h
}

// Snapshot returns every metric's current state, sorted by name.
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()

	snaps := make([]Snapshot, 0, len(names))
	for i, m := range ms {
		s := Snapshot{Name: names[i], Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram:
			s.Value = float64(m.h.N())
			s.Sum = m.h.Sum()
			s.Bounds = m.h.Bounds()
			s.Buckets = make([]uint64, len(s.Bounds)+1)
			for b := range s.Buckets {
				s.Buckets[b] = m.h.Count(b)
			}
		}
		snaps = append(snaps, s)
	}
	return snaps
}

// WriteText writes the plain-text exposition format: one
// "name kind value" line per scalar metric, and for histograms one line
// per bucket ("name.bucket le=<bound> <count>") plus count and sum. The
// output is sorted and stable, suitable for golden files and diffing runs.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		var err error
		switch s.Kind {
		case KindHistogram:
			for i, bound := range s.Bounds {
				if _, err = fmt.Fprintf(w, "%s.bucket le=%g %d\n", s.Name, bound, s.Buckets[i]); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s.bucket le=+inf %d\n", s.Name, s.Buckets[len(s.Buckets)-1]); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s.count histogram %d\n", s.Name, uint64(s.Value)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s.sum histogram %g\n", s.Name, s.Sum)
		case KindCounter:
			// Counters are integral; %d keeps large counts diff-friendly.
			_, err = fmt.Fprintf(w, "%s %s %d\n", s.Name, s.Kind, uint64(s.Value))
		default:
			_, err = fmt.Fprintf(w, "%s %s %g\n", s.Name, s.Kind, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
