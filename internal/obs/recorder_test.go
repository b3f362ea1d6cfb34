package obs

import (
	"strings"
	"testing"
)

// TestRecorderRing: a flight recorder keeps the newest notes across
// wrap-around and counts the overwritten ones.
func TestRecorderRing(t *testing.T) {
	r := NewTracer(3)
	for i := 1; i <= 5; i++ {
		r.Note("rig", int64(i*100), "event %d", i)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(evs))
	}
	for i, want := range []string{"event 3", "event 4", "event 5"} {
		if evs[i].Type != Note || evs[i].Name != want {
			t.Errorf("entry %d = %v %q, want a note %q (oldest first)", i, evs[i].Type, evs[i].Name, want)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
}

// TestRecorderDump: the dump headline counts entries and overwrites, each
// line carries source and simulated time, and cell attribution only
// appears when a cell is named.
func TestRecorderDump(t *testing.T) {
	r := NewTracer(DefaultRecorderCap)
	r.Note("iface", 1_000_000, "coupling failure: timeout")
	r.NoteCell(0x2b, "cmp", 2_000_000, "port 1: payload mismatch")
	dump := r.Dump()
	for _, want := range []string{
		"flight recorder (2 events, 0 overwritten):",
		"[iface] t=1.000us coupling failure: timeout",
		"[cmp] t=2.000us cell=0x2b port 1: payload mismatch",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(strings.Split(dump, "\n")[1], "cell=") {
		t.Errorf("cell-less entry must not claim a cell:\n%s", dump)
	}
}

// TestRecorderNil: every note method is a no-op on a nil tracer, and an
// empty tracer dumps nothing.
func TestRecorderNil(t *testing.T) {
	var r *Tracer
	if r.Enabled() {
		t.Error("nil recorder must report disabled")
	}
	r.Note("rig", 0, "dropped") // must not panic
	r.NoteCell(1, "rig", 0, "dropped")
	if r.Events() != nil || r.Dropped() != 0 || r.Dump() != "" {
		t.Error("nil recorder must hold nothing")
	}
	if NewTracer(4).Dump() != "" {
		t.Error("empty recorder must dump an empty string")
	}
}

// TestTracerGrowsOnDemand: ring storage is allocated as events arrive,
// never beyond the capacity, so a tracer that records little costs
// little however large its capacity.
func TestTracerGrowsOnDemand(t *testing.T) {
	tr := NewTracer(0)
	tr.Note("rig", 0, "one")
	tr.Note("rig", 1, "two")
	if c := cap(tr.buf); c > 8 {
		t.Errorf("two events hold %d slots of a %d-event ring", c, DefaultTraceCap)
	}
	small := NewTracer(20)
	for i := 0; i < 20; i++ {
		small.Emit(TrackRig, "e", int64(i))
	}
	if c := cap(small.buf); c != 20 || small.Dropped() != 0 {
		t.Errorf("full ring: %d slots, %d dropped; want 20 and 0", c, small.Dropped())
	}
	small.Emit(TrackRig, "e", 20)
	if evs := small.Events(); cap(small.buf) != 20 || small.Dropped() != 1 || evs[0].Sim != 1 || evs[19].Sim != 20 {
		t.Errorf("wrapped ring: %d slots, %d dropped, oldest %d, newest %d",
			cap(small.buf), small.Dropped(), evs[0].Sim, evs[19].Sim)
	}
}
