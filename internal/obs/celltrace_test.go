package obs

import (
	"strings"
	"testing"
)

// TestCellTrackerSampling: every=N keeps exactly the IDs whose zero-based
// sequence is a multiple of N, and ID 0 is never sampled.
func TestCellTrackerSampling(t *testing.T) {
	tr := NewCellTracker(4, 0)
	if tr.Sampled(0) {
		t.Error("trace ID 0 (untraced) must never be sampled")
	}
	want := map[uint64]bool{1: true, 2: false, 4: false, 5: true, 9: true, 10: false}
	for id, ok := range want {
		if got := tr.Sampled(id); got != ok {
			t.Errorf("Sampled(%d) = %v, want %v (every=4)", id, got, ok)
		}
	}
	all := NewCellTracker(1, 0)
	for id := uint64(1); id <= 10; id++ {
		if !all.Sampled(id) {
			t.Errorf("every=1 must sample id %d", id)
		}
	}
}

// TestCellTrackerNil: the whole API is a no-op on a nil tracker, the
// contract every instrumentation site relies on.
func TestCellTrackerNil(t *testing.T) {
	var tr *CellTracker
	if tr.Enabled() || tr.Sampled(1) || tr.Every() != 0 {
		t.Error("nil tracker must report disabled")
	}
	tr.Hop(1, HopNetEnqueue, 10) // must not panic
	if tr.Len() != 0 || tr.Traces() != nil {
		t.Error("nil tracker must hold nothing")
	}
	if _, ok := tr.Trace(1); ok {
		t.Error("nil tracker must not find traces")
	}
}

// TestCellTrackerPipelineOrder: hops recorded out of order (concurrent
// engines flush at different times) come back in pipeline order.
func TestCellTrackerPipelineOrder(t *testing.T) {
	tr := NewCellTracker(1, 0)
	tr.Hop(7, HopCompare, 500)
	tr.Hop(7, HopNetEnqueue, 100)
	tr.Hop(7, HopHDLCommit, 400)
	tr.Hop(7, HopEnvelopeTx, 200)
	tr.Hop(7, HopEntityRx, 300)
	got, ok := tr.Trace(7)
	if !ok {
		t.Fatal("trace 7 not found")
	}
	want := []string{HopNetEnqueue, HopEnvelopeTx, HopEntityRx, HopHDLCommit, HopCompare}
	if len(got.Hops) != len(want) {
		t.Fatalf("got %d hops, want %d", len(got.Hops), len(want))
	}
	for i, h := range got.Hops {
		if h.Name != want[i] {
			t.Errorf("hop %d = %q, want %q", i, h.Name, want[i])
		}
	}
}

// TestCellTrackerCap: cells beyond the tracked-cell cap are dropped
// whole, never recorded partially.
func TestCellTrackerCap(t *testing.T) {
	tr := NewCellTracker(1, 2)
	tr.Hop(1, HopNetEnqueue, 10)
	tr.Hop(2, HopNetEnqueue, 20)
	tr.Hop(3, HopNetEnqueue, 30) // over the cap
	tr.Hop(1, HopCompare, 40)    // existing cell still records
	if tr.Len() != 2 {
		t.Errorf("tracked %d cells, want 2", tr.Len())
	}
	if _, ok := tr.Trace(3); ok {
		t.Error("cell 3 must not be tracked past the cap")
	}
	if got, _ := tr.Trace(1); len(got.Hops) != 2 {
		t.Errorf("cell 1 has %d hops, want 2", len(got.Hops))
	}
}

// TestWaterfallText: the rendered waterfall carries the trace ID, total
// latency, every hop, and per-hop deltas — in simulated time only.
func TestWaterfallText(t *testing.T) {
	tr := NewCellTracker(1, 0)
	tr.Hop(0x2a, HopNetEnqueue, 10_000_000)
	tr.Hop(0x2a, HopEnvelopeTx, 10_000_000)
	tr.Hop(0x2a, HopEntityRx, 12_000_000)
	tr.Hop(0x2a, HopHDLCommit, 15_500_000)
	tr.Hop(0x2a, HopCompare, 22_600_000)
	got, _ := tr.Trace(0x2a)
	text := WaterfallText(got)
	for _, want := range []string{
		"cell trace 0x2a: 5 hops, 12.600us net.enqueue -> compare",
		"net.enqueue t=10.000us",
		"ipc.tx",
		"+0ps",
		"entity.rx",
		"+2.000us",
		"hdl.commit",
		"compare",
		"+7.100us",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("waterfall missing %q:\n%s", want, text)
		}
	}
	if empty := WaterfallText(CellTrace{ID: 9}); !strings.Contains(empty, "no hops recorded") {
		t.Errorf("empty trace renders %q", empty)
	}
}

// TestFlowEvents: each hop becomes a FlowPoint on its engine's track,
// carrying the trace ID as the flow binding.
func TestFlowEvents(t *testing.T) {
	tr := NewCellTracker(1, 0)
	tr.Hop(3, HopNetEnqueue, 100)
	tr.Hop(3, HopHDLCommit, 300)
	evs := tr.FlowEvents()
	if len(evs) != 2 {
		t.Fatalf("got %d flow events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Type != FlowPoint || e.Flow != 3 || e.Name != "cell 0x3" {
			t.Errorf("malformed flow event %+v", e)
		}
	}
	if evs[0].Track != TrackNetsim || evs[1].Track != TrackHDL {
		t.Errorf("flow tracks = %q, %q; want %q, %q",
			evs[0].Track, evs[1].Track, TrackNetsim, TrackHDL)
	}
}

// TestFmtSimPS pins the deterministic time rendering the waterfall and
// the flight recorder share.
func TestFmtSimPS(t *testing.T) {
	for _, tc := range []struct {
		ps   int64
		want string
	}{
		{-1, "?"},
		{0, "0ps"},
		{999_999, "999999ps"},
		{1_000_000, "1.000us"},
		{2_500_000_000, "2.500ms"},
	} {
		if got := fmtSimPS(tc.ps); got != tc.want {
			t.Errorf("fmtSimPS(%d) = %q, want %q", tc.ps, got, tc.want)
		}
	}
}
