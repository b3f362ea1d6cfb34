package sim

import "testing"

// TestFIFOOrder pushes and pops in an irregular pattern across many
// compactions and checks that entries leave in arrival order.
func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := *q.Head(); got != want {
				t.Fatalf("round %d: head %d, want %d", round, got, want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), next-want)
		}
	}
}

// TestFIFOReusesBacking checks the two promises that keep a port FIFO
// allocation-free in steady state: a queue that drains and refills
// within its capacity never grows its array, and a queue that holds a
// steady backlog while entries stream through it stays within a constant
// factor of the backlog: it grows only while at least half its array is
// live, and append at most doubles it.
func TestFIFOReusesBacking(t *testing.T) {
	var q FIFO[[53]byte]
	for i := 0; i < 4; i++ {
		q.Push([53]byte{byte(i)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	capacity := cap(q.items)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			q.Push([53]byte{byte(i)})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); n != 0 {
		t.Errorf("drain and refill allocated %.1f times per run", n)
	}
	if cap(q.items) != capacity {
		t.Errorf("capacity grew from %d to %d", capacity, cap(q.items))
	}

	const backlog = 100
	var w FIFO[int]
	for i := 0; i < backlog; i++ {
		w.Push(i)
	}
	for i := backlog; i < 100*backlog; i++ {
		w.Push(i)
		if got := w.Pop(); got != i-backlog {
			t.Fatalf("popped %d, want %d", got, i-backlog)
		}
	}
	if c := cap(w.items); c > 4*(backlog+1) {
		t.Errorf("a steady backlog of %d holds an array of %d", backlog, c)
	}
}
