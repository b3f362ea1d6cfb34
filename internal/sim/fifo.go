package sim

// FIFO is a first-in first-out queue that reuses its backing array. Pop
// advances a head index instead of reslicing, so the array's front is
// not lost to the next append; a queue that drains rewinds to the front
// for free, and Push moves the live entries to the front only once at
// least half the array is consumed, so each entry is copied a bounded
// number of times however long the backlog grows. The zero value is an
// empty queue.
type FIFO[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) && 2*q.head >= len(q.items) && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Head returns the oldest entry in place, valid until the next Push or
// Pop; the queue must not be empty.
func (q *FIFO[T]) Head() *T { return &q.items[q.head] }

// At returns the i-th oldest entry in place (At(0) is the head), valid
// until the next Push or Pop; i must be below Len.
func (q *FIFO[T]) At(i int) *T { return &q.items[q.head+i] }

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
