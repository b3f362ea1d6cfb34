package sim

import (
	"testing"
	"testing/quick"
)

// logScheduler returns a scheduler whose events are ints that fire by
// appending themselves to *got.
func logScheduler(got *[]int) *Scheduler[int] {
	return NewScheduler(func(id int) { *got = append(*got, id) })
}

func TestSchedulerOrdering(t *testing.T) {
	var got []int
	s := logScheduler(&got)
	s.At(30*Nanosecond, 3)
	s.At(10*Nanosecond, 1)
	s.At(20*Nanosecond, 2)
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	var got []int
	s := logScheduler(&got)
	for i := 0; i < 100; i++ {
		s.At(5*Nanosecond, i)
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: got[%d]=%d", i, v)
		}
	}
}

// TestSchedulerEqualTimeScheduleOrder: events that fall due at the same
// instant run in the order they were scheduled, however they interleave
// with earlier events and with events scheduled while the instant runs.
// The network simulator relies on it: a zero-delay timer set during an
// arrival runs after every arrival already due at that instant.
func TestSchedulerEqualTimeScheduleOrder(t *testing.T) {
	var got []int
	var s *Scheduler[int]
	s = NewScheduler(func(id int) {
		got = append(got, id)
		if id == 1 {
			s.After(0, 100) // joins the instant behind 2, 3 and 4
			s.After(10*Nanosecond, 101)
		}
	})
	s.At(20*Nanosecond, 4)
	s.At(10*Nanosecond, 1)
	s.At(20*Nanosecond, 5)
	s.At(10*Nanosecond, 2)
	s.At(10*Nanosecond, 3)
	s.Run()
	want := []int{1, 2, 3, 100, 4, 5, 101}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	var s *Scheduler[int]
	s = NewScheduler(func(int) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		s.At(5*Nanosecond, 0)
	})
	s.At(10*Nanosecond, 0)
	s.Run()
}

func TestSchedulerRunUntil(t *testing.T) {
	var got []int
	s := logScheduler(&got)
	s.At(10*Nanosecond, 1)
	s.At(20*Nanosecond, 2)
	s.At(30*Nanosecond, 3)
	s.RunUntil(20 * Nanosecond)
	if len(got) != 2 {
		t.Fatalf("fired = %d, want 2", len(got))
	}
	if s.Now() != 20*Nanosecond {
		t.Fatalf("Now = %v, want 20ns", s.Now())
	}
	s.RunUntil(25 * Nanosecond)
	if s.Now() != 25*Nanosecond {
		t.Fatalf("Now = %v, want 25ns (clock advances to limit)", s.Now())
	}
	s.Run()
	if len(got) != 3 {
		t.Fatalf("fired = %d, want 3", len(got))
	}
}

func TestSchedulerStop(t *testing.T) {
	fired := 0
	var s *Scheduler[int]
	s = NewScheduler(func(id int) {
		fired++
		if id == 1 {
			s.Stop()
		}
	})
	s.At(10*Nanosecond, 1)
	s.At(20*Nanosecond, 2)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	// Run resumes after a Stop.
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestSchedulerSelfScheduling(t *testing.T) {
	n := 0
	var s *Scheduler[int]
	s = NewScheduler(func(int) {
		n++
		if n < 1000 {
			s.After(Nanosecond, 0)
		}
	})
	s.After(Nanosecond, 0)
	s.Run()
	if n != 1000 {
		t.Fatalf("ticks = %d, want 1000", n)
	}
	if s.Now() != 1000*Nanosecond {
		t.Fatalf("Now = %v, want 1us", s.Now())
	}
	if s.Executed() != 1000 {
		t.Fatalf("Executed = %d, want 1000", s.Executed())
	}
}

// Property: for any set of delays, events execute in sorted order and the
// clock never moves backwards.
func TestSchedulerMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var times []Time
		var s *Scheduler[int]
		s = NewScheduler(func(int) { times = append(times, s.Now()) })
		for _, d := range delays {
			s.At(Time(d)*Nanosecond, 0)
		}
		s.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueInterleavedPushPop checks the heap against its (at, seq)
// contract under random interleaved pushes and pops: every pop returns
// the smallest queued key, so the popped keys never fall below the
// largest key popped while a smaller one was still queued.
func TestQueueInterleavedPushPop(t *testing.T) {
	var q eventQueue[int]
	rng := NewRNG(7)
	queued := map[int]Time{} // seq → at of every queued event
	seq := 0
	for i := 0; i < 5000; i++ {
		if q.Len() == 0 || rng.Bool(0.6) {
			at := Time(rng.Intn(1000))
			q.push(at, seq)
			queued[seq] = at
			seq++
			continue
		}
		at, got := q.pop()
		if queued[got] != at {
			t.Fatalf("pop returned seq %d at %v, pushed at %v", got, at, queued[got])
		}
		delete(queued, got)
		for s, a := range queued {
			if a < at || (a == at && s < got) {
				t.Fatalf("pop returned (%v, %d) while (%v, %d) was queued", at, got, a, s)
			}
		}
	}
	if q.Len() != len(queued) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(queued))
	}
}

// TestSchedulerAllocFree: once the event list has reached its high-water
// mark, scheduling and executing an event allocates nothing.
func TestSchedulerAllocFree(t *testing.T) {
	s := NewScheduler(func(int) {})
	for i := 0; i < 64; i++ {
		s.After(Duration(i)*Nanosecond, i)
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.After(100*Nanosecond, 0)
		s.Step()
	}); a != 0 {
		t.Fatalf("schedule+step allocates %v objects, want 0", a)
	}
}

// BenchmarkSchedulerChurn measures push/pop through the event heap at a
// realistic pending-set size.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(func(int) {})
	for i := 0; i < 1000; i++ {
		s.After(Duration(i)*Microsecond, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1100*Microsecond, i)
		s.Step()
	}
}
