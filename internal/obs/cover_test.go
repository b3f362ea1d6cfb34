package obs_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"castanet/internal/obs"
)

func TestCoverPointBinsAndUnknownLabels(t *testing.T) {
	c := obs.NewCoverRegistry()
	p := c.Group("g").Point("verdict", "match", "mismatch")
	p.Hit("match")
	p.Hit("match")
	p.Add("mismatch", 3)
	p.Hit("no-such-bin") // schema is fixed at definition: dropped

	snaps := c.Snapshot()
	if len(snaps) != 1 || len(snaps[0].Points) != 1 {
		t.Fatalf("snapshot shape: %+v", snaps)
	}
	bins := snaps[0].Points[0].Bins
	if len(bins) != 2 || bins[0] != (obs.CoverBin{Label: "match", Hits: 2}) ||
		bins[1] != (obs.CoverBin{Label: "mismatch", Hits: 3}) {
		t.Fatalf("bins = %+v", bins)
	}
	if hit, total := snaps[0].Covered(); hit != 2 || total != 2 {
		t.Fatalf("covered = %d/%d, want 2/2", hit, total)
	}
}

func TestCoverRangeBinning(t *testing.T) {
	c := obs.NewCoverRegistry()
	p := c.Group("g").Range("depth", 0, 4, 16)
	for _, v := range []int64{-1, 0, 1, 4, 5, 16, 17, 1000} {
		p.Observe(v)
	}
	bins := c.Snapshot()[0].Points[0].Bins
	want := []obs.CoverBin{
		{Label: "le_0", Hits: 2},  // -1, 0
		{Label: "le_4", Hits: 2},  // 1, 4
		{Label: "le_16", Hits: 2}, // 5, 16
		{Label: "gt_16", Hits: 2}, // 17, 1000
	}
	for i, b := range bins {
		if b != want[i] {
			t.Fatalf("bin %d = %+v, want %+v (all: %+v)", i, b, want[i], bins)
		}
	}
	// Observe on an enumerated point is a no-op, not a panic.
	c.Group("g").Point("enum", "a").Observe(7)
}

func TestCoverCross(t *testing.T) {
	c := obs.NewCoverRegistry()
	x := c.Group("g").Cross("class_outcome", []string{"a", "b"}, []string{"yes", "no"})
	x.Hit("a", "yes")
	x.Hit("b", "no")
	x.Hit("b", "no")
	x.Hit("z", "yes") // unknown pair dropped

	bins := c.Snapshot()[0].Points[0].Bins
	want := []obs.CoverBin{
		{Label: "a×yes", Hits: 1}, {Label: "a×no", Hits: 0},
		{Label: "b×yes", Hits: 0}, {Label: "b×no", Hits: 2},
	}
	for i, b := range bins {
		if b != want[i] {
			t.Fatalf("bin %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestCoverNilHandlesAreSafe(t *testing.T) {
	var c *obs.CoverRegistry
	g := c.Group("g")
	if g != nil {
		t.Fatal("nil registry handed out a non-nil group")
	}
	p := g.Point("p", "a")
	p.Hit("a")
	p.Add("a", 5)
	p.Observe(3)
	r := g.Range("r", 1, 2)
	r.Observe(1)
	x := g.Cross("x", []string{"a"}, []string{"b"})
	x.Hit("a", "b")
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %+v", got)
	}
	c.Absorb([]obs.CoverGroupSnap{{Name: "g"}})
}

func TestCoverSchemaClashPanics(t *testing.T) {
	c := obs.NewCoverRegistry()
	c.Group("g").Point("p", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering p with different bins did not panic")
		}
	}()
	c.Group("g").Point("p", "a", "c")
}

func TestCoverRangeBoundsMustAscend(t *testing.T) {
	c := obs.NewCoverRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	c.Group("g").Range("r", 4, 4)
}

// synthSnap builds a snapshot with the given hit split, the schema all
// merge tests share.
func synthSnap(a, b uint64) []obs.CoverGroupSnap {
	c := obs.NewCoverRegistry()
	p := c.Group("g1").Point("p", "a", "b")
	p.Add("a", a)
	p.Add("b", b)
	c.Group("g0").Range("r", 10).Observe(int64(a))
	return c.Snapshot()
}

func TestMergeCoverSumsAndOrderIndependence(t *testing.T) {
	x, y, z := synthSnap(1, 2), synthSnap(10, 20), synthSnap(100, 200)
	ab := obs.MergeCover(obs.MergeCover(nil, x), obs.MergeCover(nil, y))
	abc1 := obs.MergeCover(ab, z)
	cba := obs.MergeCover(obs.MergeCover(obs.MergeCover(nil, z), y), x)
	if len(abc1) != len(cba) {
		t.Fatalf("group counts differ: %d vs %d", len(abc1), len(cba))
	}
	for i := range abc1 {
		if abc1[i].Name != cba[i].Name {
			t.Fatalf("group order differs: %s vs %s", abc1[i].Name, cba[i].Name)
		}
		for j := range abc1[i].Points {
			for k, bin := range abc1[i].Points[j].Bins {
				if bin != cba[i].Points[j].Bins[k] {
					t.Fatalf("merge order changed bin %s.%s[%d]: %+v vs %+v",
						abc1[i].Name, abc1[i].Points[j].Name, k, bin, cba[i].Points[j].Bins[k])
				}
			}
		}
	}
	p := abc1[1].Points[0]
	if p.Bins[0].Hits != 111 || p.Bins[1].Hits != 222 {
		t.Fatalf("sums wrong: %+v", p.Bins)
	}
}

func TestMergeCoverDoesNotAliasSource(t *testing.T) {
	src := synthSnap(5, 7)
	merged := obs.MergeCover(nil, src)
	merged[0].Points[0].Bins[0].Hits = 999
	if src[0].Points[0].Bins[0].Hits == 999 {
		t.Fatal("MergeCover aliased the source snapshot")
	}
}

func TestMergeCoverDisjointSchemas(t *testing.T) {
	a := obs.NewCoverRegistry()
	a.Group("only_a").Point("p", "x").Hit("x")
	b := obs.NewCoverRegistry()
	b.Group("only_b").Point("q", "y").Hit("y")
	got := obs.MergeCover(a.Snapshot(), b.Snapshot())
	if len(got) != 2 || got[0].Name != "only_a" || got[1].Name != "only_b" {
		t.Fatalf("disjoint merge = %+v", got)
	}
}

func TestAbsorbAccumulates(t *testing.T) {
	mirror := obs.NewCoverRegistry()
	mirror.Absorb(synthSnap(1, 2))
	mirror.Absorb(synthSnap(10, 20))
	snap := mirror.Snapshot()
	// Groups sorted: g0, g1.
	p := snap[1].Points[0]
	if p.Bins[0].Hits != 11 || p.Bins[1].Hits != 22 {
		t.Fatalf("absorbed bins = %+v", p.Bins)
	}
}

// TestAbsorbIntoInstrumentedPoints: a snapshot folds into range and
// cross points a rig registered directly, instead of re-registering them
// as enumerated points.
func TestAbsorbIntoInstrumentedPoints(t *testing.T) {
	src := obs.NewCoverRegistry()
	src.Group("g").Range("r", 8).Observe(3)
	src.Group("g").Cross("x", []string{"a"}, []string{"b", "c"}).Hit("a", "c")
	dst := obs.NewCoverRegistry()
	dst.Group("g").Range("r", 8).Observe(9)
	dst.Group("g").Cross("x", []string{"a"}, []string{"b", "c"})
	dst.Absorb(src.Snapshot())
	dst.Absorb(src.Snapshot())
	got := dst.Snapshot()[0].Points
	if r := got[0].Bins; r[0].Hits != 2 || r[1].Hits != 1 {
		t.Errorf("range bins = %+v, want le_8=2 gt_8=1", r)
	}
	if x := got[1].Bins; x[0].Hits != 0 || x[1].Hits != 2 {
		t.Errorf("cross bins = %+v, want a×b=0 a×c=2", x)
	}
}

func TestCoverConcurrentHits(t *testing.T) {
	c := obs.NewCoverRegistry()
	var wg sync.WaitGroup
	const workers, hits = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := c.Group("g").Point("p", "a", "b")
			r := c.Group("g").Range("r", 8, 64)
			for i := 0; i < hits; i++ {
				p.Hit("a")
				r.Observe(rng.Int63n(100))
			}
		}(int64(w))
	}
	wg.Wait()
	snap := c.Snapshot()
	var total uint64
	for _, pt := range snap[0].Points {
		for _, b := range pt.Bins {
			total += b.Hits
		}
	}
	if total != 2*workers*hits {
		t.Fatalf("concurrent hits lost: total = %d, want %d", total, 2*workers*hits)
	}
}

func TestWriteCoverTextGolden(t *testing.T) {
	c := obs.NewCoverRegistry()
	p := c.Group("rig.cmp").Point("verdict", "match", "mismatch")
	p.Add("match", 7)
	c.Group("rig.cmp").Range("depth", 2).Observe(1)

	var b strings.Builder
	if err := obs.WriteCoverText(&b, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := "group rig.cmp 2/4 bins (50.0%)\n" +
		"  depth 1/2 le_2=1 gt_2=0\n" +
		"  verdict 1/2 match=7 mismatch=0\n"
	if b.String() != want {
		t.Fatalf("text report:\n%s\nwant:\n%s", b.String(), want)
	}

	b.Reset()
	if err := obs.WriteCoverText(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "coverage: no cover groups instrumented\n" {
		t.Fatalf("empty report = %q", b.String())
	}
}

func TestWriteCoverPrometheusGolden(t *testing.T) {
	c := obs.NewCoverRegistry()
	c.Group("rig.cmp").Point("verdict", "match", "mismatch").Add("match", 7)

	var b strings.Builder
	if err := obs.WriteCoverPrometheus(&b, c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE castanet_cover_bin_total counter\n" +
		"castanet_cover_bin_total{group=\"rig.cmp\",point=\"verdict\",bin=\"match\"} 7\n" +
		"castanet_cover_bin_total{group=\"rig.cmp\",point=\"verdict\",bin=\"mismatch\"} 0\n" +
		"# TYPE castanet_cover_group_ratio gauge\n" +
		"castanet_cover_group_ratio{group=\"rig.cmp\"} 0.5\n"
	if b.String() != want {
		t.Fatalf("prometheus exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	b.Reset()
	if err := obs.WriteCoverPrometheus(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Fatalf("empty exposition = %q", b.String())
	}
}

// TestCoverRangeBoundaries pins the exact bin selection at and around
// every band threshold: Observe places v in the first bin whose bound is
// >= v, so each le_<bound> bin is inclusive of its bound and the overflow
// bin starts one past the last bound.
func TestCoverRangeBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		bounds []int64
		obs    map[int64]string // value -> expected bin label
	}{
		{
			name:   "three-band",
			bounds: []int64{0, 10, 100},
			obs: map[int64]string{
				math.MinInt64: "le_0",
				-1:            "le_0",
				0:             "le_0",
				1:             "le_10",
				9:             "le_10",
				10:            "le_10",
				11:            "le_100",
				99:            "le_100",
				100:           "le_100",
				101:           "gt_100",
				math.MaxInt64: "gt_100",
			},
		},
		{
			name:   "single-bound",
			bounds: []int64{5},
			obs: map[int64]string{
				4: "le_5",
				5: "le_5",
				6: "gt_5",
			},
		},
		{
			name:   "negative-bounds",
			bounds: []int64{-10, -1},
			obs: map[int64]string{
				-11: "le_-10",
				-10: "le_-10",
				-9:  "le_-1",
				-1:  "le_-1",
				0:   "gt_-1",
				7:   "gt_-1",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for v, wantLabel := range tc.obs {
				c := obs.NewCoverRegistry()
				p := c.Group("g").Range("band", tc.bounds...)
				p.Observe(v)
				var hit []string
				for _, b := range c.Snapshot()[0].Points[0].Bins {
					if b.Hits > 0 {
						hit = append(hit, b.Label)
						if b.Hits != 1 {
							t.Errorf("Observe(%d): bin %s hits = %d, want 1", v, b.Label, b.Hits)
						}
					}
				}
				if len(hit) != 1 || hit[0] != wantLabel {
					t.Errorf("Observe(%d) hit bins %v, want exactly [%s]", v, hit, wantLabel)
				}
			}
		})
	}
}
