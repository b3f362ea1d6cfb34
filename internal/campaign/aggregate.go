package campaign

import (
	"math"
	"math/big"
	"sort"

	"castanet/internal/obs"
)

// histBounds are the bucket upper bounds of the per-stat registry
// histograms. Campaign stats span cells-per-run counts, latencies in
// seconds and cycle counts, so the buckets cover nine decades.
var histBounds = []float64{1e-3, 1e-2, 0.1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// sumLimbs is the width of an exact float64 sum in 32-bit limbs. Bit 0 of
// limb 0 weighs 2^-1074, the smallest subnormal; a finite float64's
// mantissa reaches at most limb 65, and the two limbs above it hold the
// carries of up to 2^64 maximal terms.
const sumLimbs = 68

// exactSum adds float64 values with no rounding at all: a fixed-point
// integer spanning the whole float64 range, kept in 32-bit limbs with
// int64 headroom so an add touches three limbs and propagates no carry.
// The represented value is sum(limb[i] * 2^(32i-1074)) whatever the
// grouping or order of the adds, so a sum merged from any number of
// shards rounds (once, in round) to the same float64 as a serial one.
type exactSum struct {
	limb [sumLimbs]int64
	// pending counts the adds since the last carry propagation; each add
	// moves a limb by less than 2^32, so 2^30 of them cannot overflow it.
	pending uint32
	// special is the sum of the non-finite terms (±Inf, NaN), 0 if none.
	// It is order-independent too: any NaN or opposite infinities give
	// NaN, same-signed infinities give that infinity.
	special float64
}

func (s *exactSum) add(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		s.special += v
		return
	}
	// v = mant * 2^(exp-1075) with exp >= 1 (a subnormal's exponent field
	// 0 scales like 1, without the implicit bit), so mant sits at fixed-
	// point bit exp-1.
	b := math.Float64bits(v)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1
	} else {
		mant |= 1 << 52
	}
	k, off := (exp-1)/32, uint((exp-1)%32)
	lo, hi := mant<<off, mant>>(64-off) // mant>>64 is 0 in Go
	d0, d1, d2 := int64(lo&math.MaxUint32), int64(lo>>32), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	s.limb[k] += d0
	s.limb[k+1] += d1
	s.limb[k+2] += d2
	if s.pending++; s.pending >= 1<<30 {
		s.normalize()
	}
}

// normalize propagates carries: limbs below the top land in [0, 2^32) and
// the top limb carries the sign.
func (s *exactSum) normalize() {
	for i := 0; i < sumLimbs-1; i++ {
		c := s.limb[i] >> 32
		s.limb[i] -= c << 32
		s.limb[i+1] += c
	}
	s.pending = 0
}

// merge adds b's value into s.
func (s *exactSum) merge(b exactSum) {
	b.normalize()
	s.normalize()
	for i := range s.limb {
		s.limb[i] += b.limb[i]
	}
	s.pending = 1
	s.special += b.special
}

// magnitude returns the sum's sign and its normalized magnitude limbs:
// the one representation of a value, which the checkpoint encodes.
func (s *exactSum) magnitude() (neg bool, mag [sumLimbs]uint32) {
	t := *s
	t.normalize()
	if t.limb[sumLimbs-1] < 0 {
		neg = true
		for i := range t.limb {
			t.limb[i] = -t.limb[i]
		}
		t.normalize()
	}
	for i, l := range t.limb {
		mag[i] = uint32(l)
	}
	return neg, mag
}

// round returns the float64 nearest the exact sum (ties to even); a sum
// beyond the float64 range rounds to an infinity.
func (s *exactSum) round() float64 {
	if s.special != 0 {
		return s.special
	}
	x, w := new(big.Int), new(big.Int)
	for i := sumLimbs - 1; i >= 0; i-- {
		x.Lsh(x, 32)
		x.Add(x, w.SetInt64(s.limb[i]))
	}
	f := new(big.Float).SetInt(x) // exact: the precision grows to fit x
	v, _ := f.SetMantExp(f, -1074).Float64()
	return v
}

// statAgg is the streaming aggregate of one named stat: O(1) memory per
// stat however many runs observe it, and no allocation per observation.
type statAgg struct {
	count    uint64
	min, max float64
	sum      exactSum
}

func (s *statAgg) observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum.add(v)
}

// merge folds b into s. Every field merges exactly, so the result does not
// depend on how runs were grouped into shards or in what order the
// groups merge.
func (s *statAgg) merge(b *statAgg) {
	if b.count == 0 {
		return
	}
	if s.count == 0 || b.min < s.min {
		s.min = b.min
	}
	if s.count == 0 || b.max > s.max {
		s.max = b.max
	}
	s.count += b.count
	s.sum.merge(b.sum)
}

// agg is one shard's stat table plus its accumulated functional-coverage
// snapshot. Workers own their agg exclusively while running; no locking
// is needed until the engine merges them.
type agg struct {
	stats map[string]*statAgg
	// cover is the bin-wise sum of the committed runs' coverage
	// snapshots; the integer bin merge is order-independent, so coverage
	// is byte-identical at any shard count by construction.
	cover []obs.CoverGroupSnap
	// activity is the entry-wise sum of the committed runs' simulation
	// activity profiles (per-signal events, per-process runs). The same
	// integer-merge argument as cover applies: byte-identical at any
	// shard count.
	activity obs.ActivitySnap
}

func newAgg() *agg { return &agg{stats: make(map[string]*statAgg)} }

func (a *agg) observe(name string, v float64) {
	s, ok := a.stats[name]
	if !ok {
		s = &statAgg{}
		a.stats[name] = s
	}
	s.observe(v)
}

func (a *agg) merge(b *agg) {
	for name, bs := range b.stats {
		s, ok := a.stats[name]
		if !ok {
			s = &statAgg{}
			a.stats[name] = s
		}
		s.merge(bs)
	}
	a.cover = obs.MergeCover(a.cover, b.cover)
	a.activity = obs.MergeActivity(a.activity, b.activity)
}

// Stat is one aggregated campaign statistic.
type Stat struct {
	Name  string
	Count uint64
	Sum   float64 // the exact sum of the observations, rounded once
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (0 for an empty stat).
func (s Stat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// namedStat is one entry of a stat table in name order, the form the
// checkpoint stores: a copy, so a snapshot never aliases a live table.
type namedStat struct {
	name string
	statAgg
}

// sorted copies the stat table into name order.
func (a *agg) sorted() []namedStat {
	out := make([]namedStat, 0, len(a.stats))
	for name, s := range a.stats {
		out = append(out, namedStat{name: name, statAgg: *s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// summary flattens the table into report stats, sorted by name, rounding
// each exact sum once.
func (a *agg) summary() []Stat {
	ns := a.sorted()
	out := make([]Stat, len(ns))
	for i, s := range ns {
		out[i] = Stat{Name: s.name, Count: s.count, Sum: s.sum.round(), Min: s.min, Max: s.max}
	}
	return out
}

// publishSummary mirrors the campaign totals and per-stat aggregates into
// the registry as gauges, alongside the per-shard counters the workers
// maintained while running.
func publishSummary(reg *obs.Registry, sum *Summary) {
	if reg == nil {
		return
	}
	reg.Gauge("campaign.completed").Set(float64(sum.Completed))
	reg.Gauge("campaign.failed").Set(float64(sum.Failed))
	reg.Gauge("campaign.skipped").Set(float64(sum.Skipped))
	reg.Gauge("campaign.retried").Set(float64(sum.Retried))
	reg.Gauge("campaign.gaveup").Set(float64(sum.GaveUp))
	reg.Gauge("campaign.shards").Set(float64(sum.Shards))
	for _, s := range sum.Stats {
		reg.Gauge("campaign.stat." + s.Name + ".mean").Set(s.Mean())
		reg.Gauge("campaign.stat." + s.Name + ".min").Set(s.Min)
		reg.Gauge("campaign.stat." + s.Name + ".max").Set(s.Max)
	}
}
