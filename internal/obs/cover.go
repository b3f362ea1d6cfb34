package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Functional coverage: named bin groups with atomic hit counters.
//
// A CoverRegistry holds CoverGroups; a CoverGroup holds CoverPoints; a
// CoverPoint is an ordered set of bins, each an atomic uint64 hit count.
// Points come in two shapes — enumerated labels (Point) and integer range
// bands (Range) — plus cross products of two label sets (Cross). The
// handle discipline matches the metrics registry exactly: every handle is
// nil-safe, so instrumented engine code pays one pointer test (~0 ns)
// when coverage is disabled, and definition is get-or-create under a
// mutex with a panic on schema clash.
//
// Determinism contract: bins are fixed at definition time (a Hit with an
// unknown label is dropped, never auto-added), points and groups snapshot
// sorted by name, and bins snapshot in definition order. Because every
// run defines its schema from the same code paths, per-run snapshots
// merge bin-wise by label into an order-independent integer sum — the
// property the campaign engine relies on for shard-exact digests.

// coverKind distinguishes point shapes for schema-clash detection.
type coverKind uint8

const (
	coverPoint coverKind = iota
	coverRange
	coverCross
)

func (k coverKind) String() string {
	switch k {
	case coverPoint:
		return "point"
	case coverRange:
		return "range"
	case coverCross:
		return "cross"
	}
	return "unknown"
}

// CoverPoint is one coverage point: an ordered, fixed set of bins with
// atomic hit counters. A nil *CoverPoint drops every hit for ~0 ns.
type CoverPoint struct {
	name   string
	kind   coverKind
	labels []string       // bin labels in definition order
	index  map[string]int // label -> bin
	bounds []int64        // range points only: ascending upper bounds
	hits   []atomic.Uint64
}

// Hit counts one hit of the named bin. Unknown labels are dropped: bins
// are fixed at definition so every run carries the same schema.
func (p *CoverPoint) Hit(label string) {
	p.Add(label, 1)
}

// Add counts n hits of the named bin (unknown labels dropped).
func (p *CoverPoint) Add(label string, n uint64) {
	if p == nil || n == 0 {
		return
	}
	if i, ok := p.index[label]; ok {
		p.hits[i].Add(n)
	}
}

// Observe bins an integer observation on a range point: the first bin
// whose bound is >= v, or the overflow bin past the last bound. On an
// enumerated point it is a no-op. Range points have a handful of bands,
// so a linear scan beats a binary search on the hot path.
func (p *CoverPoint) Observe(v int64) {
	if p == nil || p.bounds == nil {
		return
	}
	for i, b := range p.bounds {
		if b >= v {
			p.hits[i].Add(1)
			return
		}
	}
	p.hits[len(p.bounds)].Add(1)
}

// CoverHit is a precomputed handle on one bin: the per-hit label lookup
// (map index or ×-concatenation) is paid once at definition time instead
// of on every hit. Hot call sites with a fixed label cache one of these.
// A nil *CoverHit drops every hit for ~0 ns, so handles stay nil-safe all
// the way down from a nil registry.
type CoverHit struct {
	c *atomic.Uint64
}

// Hit counts one hit of the handle's bin.
func (h *CoverHit) Hit() {
	if h == nil {
		return
	}
	h.c.Add(1)
}

// Handle returns a precomputed hit handle for the named bin, nil for a nil
// point or an unknown label (both drop hits, matching Hit's semantics).
func (p *CoverPoint) Handle(label string) *CoverHit {
	if p == nil {
		return nil
	}
	if i, ok := p.index[label]; ok {
		return &CoverHit{c: &p.hits[i]}
	}
	return nil
}

// CoverCross is a cross-coverage point over two label sets; each (a, b)
// pair is one bin. A nil *CoverCross drops every hit.
type CoverCross struct {
	p *CoverPoint
}

// Hit counts one hit of the (a, b) bin (unknown pairs dropped).
func (x *CoverCross) Hit(a, b string) {
	if x == nil {
		return
	}
	x.p.Add(a+"×"+b, 1)
}

// Handle returns a precomputed hit handle for the (a, b) bin, nil for a
// nil cross or an unknown pair.
func (x *CoverCross) Handle(a, b string) *CoverHit {
	if x == nil {
		return nil
	}
	return x.p.Handle(a + "×" + b)
}

// CoverGroup is a named group of coverage points. A nil *CoverGroup hands
// out nil points.
type CoverGroup struct {
	name   string
	mu     sync.Mutex
	points map[string]*CoverPoint
}

func (g *CoverGroup) get(name string, kind coverKind, labels []string, bounds []int64) *CoverPoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p, ok := g.points[name]; ok {
		if p.kind != kind || !sameLabels(p.labels, labels) {
			panic(fmt.Sprintf("obs: cover point %s.%s re-registered as %v%v (was %v%v)",
				g.name, name, kind, labels, p.kind, p.labels))
		}
		return p
	}
	p := &CoverPoint{
		name:   name,
		kind:   kind,
		labels: labels,
		index:  make(map[string]int, len(labels)),
		bounds: bounds,
		hits:   make([]atomic.Uint64, len(labels)),
	}
	for i, l := range labels {
		p.index[l] = i
	}
	g.points[name] = p
	return p
}

// absorbPoint returns the named point with the given bins for Absorb: the
// registered one of any kind, else a new enumerated point. Different bins
// under the same name panic, as in get.
func (g *CoverGroup) absorbPoint(name string, labels []string) *CoverPoint {
	g.mu.Lock()
	p, ok := g.points[name]
	g.mu.Unlock()
	if ok && sameLabels(p.labels, labels) {
		return p
	}
	return g.Point(name, labels...)
}

func sameLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Point returns the named enumerated point, defining its bins on first
// use. Re-registration with different bins panics.
func (g *CoverGroup) Point(name string, labels ...string) *CoverPoint {
	if g == nil {
		return nil
	}
	return g.get(name, coverPoint, append([]string(nil), labels...), nil)
}

// Range returns the named range point with ascending integer band bounds:
// bins "le_<bound>"... plus one "gt_<last>" overflow bin.
func (g *CoverGroup) Range(name string, bounds ...int64) *CoverPoint {
	if g == nil {
		return nil
	}
	labels := make([]string, 0, len(bounds)+1)
	for i, b := range bounds {
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("obs: cover range %s.%s bounds must ascend", g.name, name))
		}
		labels = append(labels, fmt.Sprintf("le_%d", b))
	}
	if len(bounds) > 0 {
		labels = append(labels, fmt.Sprintf("gt_%d", bounds[len(bounds)-1]))
	}
	return g.get(name, coverRange, labels, append([]int64(nil), bounds...))
}

// Cross returns the named cross of two label sets: one bin per (a, b)
// pair, a-major in definition order.
func (g *CoverGroup) Cross(name string, a, b []string) *CoverCross {
	if g == nil {
		return nil
	}
	labels := make([]string, 0, len(a)*len(b))
	for _, la := range a {
		for _, lb := range b {
			labels = append(labels, la+"×"+lb)
		}
	}
	return &CoverCross{p: g.get(name, coverCross, labels, nil)}
}

// CoverRegistry holds named cover groups. Like the metrics Registry, a
// nil *CoverRegistry hands out nil groups, so a disabled deployment costs
// one nil test per instrumentation site.
type CoverRegistry struct {
	mu     sync.Mutex
	groups map[string]*CoverGroup
}

// NewCoverRegistry returns an empty cover registry.
func NewCoverRegistry() *CoverRegistry {
	return &CoverRegistry{groups: make(map[string]*CoverGroup)}
}

// Group returns the named group, creating it on first use.
func (r *CoverRegistry) Group(name string) *CoverGroup {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.groups[name]
	if !ok {
		g = &CoverGroup{name: name, points: make(map[string]*CoverPoint)}
		r.groups[name] = g
	}
	return g
}

// CoverBin is one bin's state at snapshot time.
type CoverBin struct {
	Label string `json:"bin"`
	Hits  uint64 `json:"hits"`
}

// CoverPointSnap is one point's state: bins in definition order.
type CoverPointSnap struct {
	Name string     `json:"name"`
	Bins []CoverBin `json:"bins"`
}

// Covered reports how many of the point's bins have at least one hit.
func (s CoverPointSnap) Covered() (hit, total int) {
	for _, b := range s.Bins {
		if b.Hits > 0 {
			hit++
		}
	}
	return hit, len(s.Bins)
}

// CoverGroupSnap is one group's state: points sorted by name.
type CoverGroupSnap struct {
	Name   string           `json:"group"`
	Points []CoverPointSnap `json:"points"`
}

// Covered reports how many of the group's bins have at least one hit.
func (s CoverGroupSnap) Covered() (hit, total int) {
	for _, p := range s.Points {
		h, t := p.Covered()
		hit += h
		total += t
	}
	return hit, total
}

// Ratio is the group's hit-bin fraction in [0, 1] (0 for an empty group).
func (s CoverGroupSnap) Ratio() float64 {
	hit, total := s.Covered()
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Snapshot returns every group's state: groups and points sorted by name,
// bins in definition order. nil registries snapshot empty.
func (r *CoverRegistry) Snapshot() []CoverGroupSnap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	groups := make([]*CoverGroup, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.Unlock()
	sort.Slice(groups, func(i, j int) bool { return groups[i].name < groups[j].name })

	snaps := make([]CoverGroupSnap, 0, len(groups))
	for _, g := range groups {
		g.mu.Lock()
		points := make([]*CoverPoint, 0, len(g.points))
		for _, p := range g.points {
			points = append(points, p)
		}
		g.mu.Unlock()
		sort.Slice(points, func(i, j int) bool { return points[i].name < points[j].name })
		gs := CoverGroupSnap{Name: g.name, Points: make([]CoverPointSnap, 0, len(points))}
		for _, p := range points {
			ps := CoverPointSnap{Name: p.name, Bins: make([]CoverBin, len(p.labels))}
			for i, l := range p.labels {
				ps.Bins[i] = CoverBin{Label: l, Hits: p.hits[i].Load()}
			}
			gs.Points = append(gs.Points, ps)
		}
		snaps = append(snaps, gs)
	}
	return snaps
}

// Absorb folds a snapshot into the registry: groups, points and bins are
// created as needed (as enumerated points) and hit counts added; a point
// already registered with the same bins takes the hits whatever its kind
// (range, cross), so a campaign's merged coverage folds into a registry
// that rigs instrumented directly. It backs the live telemetry mirror,
// which accumulates committed per-run snapshots for /coverage while a
// campaign runs.
func (r *CoverRegistry) Absorb(snaps []CoverGroupSnap) {
	if r == nil {
		return
	}
	for _, gs := range snaps {
		g := r.Group(gs.Name)
		for _, ps := range gs.Points {
			labels := make([]string, len(ps.Bins))
			for i, b := range ps.Bins {
				labels[i] = b.Label
			}
			p := g.absorbPoint(ps.Name, labels)
			for _, b := range ps.Bins {
				p.Add(b.Label, b.Hits)
			}
		}
	}
}

// MergeCover folds src into dst bin-wise and returns the result: groups
// and points united by name (kept sorted), bins aligned by label with
// dst's order winning and unseen src bins appended. Hit counts are
// integer sums, so the merge is associative, commutative and independent
// of shard count or merge order whenever the operands share a schema —
// which instrumented code guarantees by defining bins in code.
func MergeCover(dst, src []CoverGroupSnap) []CoverGroupSnap {
	if len(src) == 0 {
		return dst
	}
	if len(dst) == 0 {
		return cloneCover(src)
	}
	out := make([]CoverGroupSnap, 0, len(dst)+len(src))
	i, j := 0, 0
	for i < len(dst) || j < len(src) {
		switch {
		case j >= len(src) || (i < len(dst) && dst[i].Name < src[j].Name):
			out = append(out, dst[i])
			i++
		case i >= len(dst) || src[j].Name < dst[i].Name:
			out = append(out, cloneGroup(src[j]))
			j++
		default:
			out = append(out, mergeGroup(dst[i], src[j]))
			i, j = i+1, j+1
		}
	}
	return out
}

func mergeGroup(dst, src CoverGroupSnap) CoverGroupSnap {
	out := CoverGroupSnap{Name: dst.Name, Points: make([]CoverPointSnap, 0, len(dst.Points)+len(src.Points))}
	i, j := 0, 0
	for i < len(dst.Points) || j < len(src.Points) {
		switch {
		case j >= len(src.Points) || (i < len(dst.Points) && dst.Points[i].Name < src.Points[j].Name):
			out.Points = append(out.Points, dst.Points[i])
			i++
		case i >= len(dst.Points) || src.Points[j].Name < dst.Points[i].Name:
			out.Points = append(out.Points, clonePoint(src.Points[j]))
			j++
		default:
			out.Points = append(out.Points, mergePoint(dst.Points[i], src.Points[j]))
			i, j = i+1, j+1
		}
	}
	return out
}

func mergePoint(dst, src CoverPointSnap) CoverPointSnap {
	out := CoverPointSnap{Name: dst.Name, Bins: append([]CoverBin(nil), dst.Bins...)}
	index := make(map[string]int, len(out.Bins))
	for i, b := range out.Bins {
		index[b.Label] = i
	}
	for _, b := range src.Bins {
		if i, ok := index[b.Label]; ok {
			out.Bins[i].Hits += b.Hits
		} else {
			index[b.Label] = len(out.Bins)
			out.Bins = append(out.Bins, b)
		}
	}
	return out
}

func cloneCover(snaps []CoverGroupSnap) []CoverGroupSnap {
	out := make([]CoverGroupSnap, len(snaps))
	for i, g := range snaps {
		out[i] = cloneGroup(g)
	}
	return out
}

func cloneGroup(g CoverGroupSnap) CoverGroupSnap {
	out := CoverGroupSnap{Name: g.Name, Points: make([]CoverPointSnap, len(g.Points))}
	for i, p := range g.Points {
		out.Points[i] = clonePoint(p)
	}
	return out
}

func clonePoint(p CoverPointSnap) CoverPointSnap {
	return CoverPointSnap{Name: p.Name, Bins: append([]CoverBin(nil), p.Bins...)}
}

// CoverTotals sums Covered over a whole snapshot: the headline hit and
// defined bin counts across every group.
func CoverTotals(snaps []CoverGroupSnap) (hit, total int) {
	for _, g := range snaps {
		h, t := g.Covered()
		hit += h
		total += t
	}
	return hit, total
}

// WriteCoverText writes the human coverage report: one group header line
// with the hit-bin percentage and one line per point listing every bin's
// hit count. Integer-derived and sorted, so the output is byte-stable for
// a given coverage state.
func WriteCoverText(w io.Writer, snaps []CoverGroupSnap) error {
	if len(snaps) == 0 {
		_, err := fmt.Fprintln(w, "coverage: no cover groups instrumented")
		return err
	}
	for _, g := range snaps {
		hit, total := g.Covered()
		if _, err := fmt.Fprintf(w, "group %s %d/%d bins (%.1f%%)\n", g.Name, hit, total, 100*g.Ratio()); err != nil {
			return err
		}
		for _, p := range g.Points {
			ph, pt := p.Covered()
			if _, err := fmt.Fprintf(w, "  %s %d/%d", p.Name, ph, pt); err != nil {
				return err
			}
			for _, b := range p.Bins {
				if _, err := fmt.Fprintf(w, " %s=%d", b.Label, b.Hits); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCoverDigest writes the coverage: section of the deterministic
// campaign and exploration digests: one header, one group line with the
// hit-bin percentage, and one point line listing every bin's hit count.
// All figures derive from integer bin sums in a fixed sort order, so the
// section is byte-identical at any shard count and across kill/resume.
// No groups write nothing.
func WriteCoverDigest(w io.Writer, snaps []CoverGroupSnap) error {
	if len(snaps) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "coverage: groups=%d\n", len(snaps)); err != nil {
		return err
	}
	for _, g := range snaps {
		hit, total := g.Covered()
		if _, err := fmt.Fprintf(w, "cover group=%s hit=%d total=%d pct=%.1f\n",
			g.Name, hit, total, 100*g.Ratio()); err != nil {
			return err
		}
		for _, p := range g.Points {
			if _, err := fmt.Fprintf(w, "cover point=%s.%s", g.Name, p.Name); err != nil {
				return err
			}
			for _, b := range p.Bins {
				if _, err := fmt.Fprintf(w, " %s=%d", b.Label, b.Hits); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCoverPrometheus writes the cover state in Prometheus exposition
// format: one castanet_cover_bin_total sample per bin and one
// castanet_cover_group_ratio gauge per group.
func WriteCoverPrometheus(w io.Writer, snaps []CoverGroupSnap) error {
	if len(snaps) == 0 {
		return nil
	}
	if _, err := fmt.Fprint(w, "# TYPE castanet_cover_bin_total counter\n"); err != nil {
		return err
	}
	for _, g := range snaps {
		for _, p := range g.Points {
			for _, b := range p.Bins {
				if _, err := fmt.Fprintf(w, "castanet_cover_bin_total{group=%q,point=%q,bin=%q} %d\n",
					g.Name, p.Name, b.Label, b.Hits); err != nil {
					return err
				}
			}
		}
	}
	if _, err := fmt.Fprint(w, "# TYPE castanet_cover_group_ratio gauge\n"); err != nil {
		return err
	}
	for _, g := range snaps {
		if _, err := fmt.Fprintf(w, "castanet_cover_group_ratio{group=%q} %g\n", g.Name, g.Ratio()); err != nil {
			return err
		}
	}
	return nil
}
