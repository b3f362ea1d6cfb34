package sim

// Event is a scheduled callback. Events are ordered by time stamp; events
// with equal time stamps execute in the order they were scheduled, which
// makes runs reproducible regardless of map iteration or goroutine timing.
type Event struct {
	At   Time
	Fn   func()
	seq  uint64
	pos  int // index in the heap, -1 when not queued
	dead bool
}

// eventQueue is a binary min-heap keyed on (At, seq). A hand-rolled heap
// (rather than container/heap) avoids the interface boxing on every
// operation; the event queue is the hottest structure in the kernel.
type eventQueue struct {
	items []*Event
	nseq  uint64
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) push(e *Event) {
	e.seq = q.nseq
	q.nseq++
	e.pos = len(q.items)
	q.items = append(q.items, e)
	q.up(e.pos)
}

// peek returns the earliest live event without removing it, or nil.
func (q *eventQueue) peek() *Event {
	q.drain()
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// pop removes and returns the earliest live event, or nil when empty.
func (q *eventQueue) pop() *Event {
	q.drain()
	if len(q.items) == 0 {
		return nil
	}
	return q.remove(0)
}

// drain discards cancelled events sitting at the head so that peek/pop see
// a live event. Cancelled events elsewhere in the heap are dropped lazily
// when they surface.
func (q *eventQueue) drain() {
	for len(q.items) > 0 && q.items[0].dead {
		q.remove(0)
	}
}

func (q *eventQueue) remove(i int) *Event {
	e := q.items[i]
	last := len(q.items) - 1
	q.items[i] = q.items[last]
	q.items[i].pos = i
	q.items[last] = nil
	q.items = q.items[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	e.pos = -1
	return e
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

func (q *eventQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].pos = i
	q.items[j].pos = j
}
