package sim

// entry is one scheduled event, held by value: its payload and its place
// in the (at, seq) order.
type entry[E any] struct {
	at  Time
	seq uint64
	ev  E
}

// before reports whether a executes before b: earlier time stamp first,
// and among equal time stamps the one scheduled first.
func (a *entry[E]) before(b *entry[E]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events held by value, keyed on
// (at, seq). Entries live in one array that is reused as the queue
// drains and refills, so scheduling allocates only while the pending set
// grows past its high-water mark. A hand-rolled heap (rather than
// container/heap) avoids the interface boxing on every operation, and the
// sift loops move a hole instead of swapping, so each level copies one
// entry.
type eventQueue[E any] struct {
	items []entry[E]
	nseq  uint64
}

func (q *eventQueue[E]) Len() int { return len(q.items) }

// push adds ev at time at, after every event already queued for at.
func (q *eventQueue[E]) push(at Time, ev E) {
	q.items = append(q.items, entry[E]{at: at, seq: q.nseq, ev: ev})
	q.nseq++
	q.up(len(q.items) - 1)
}

// peek returns the earliest time stamp, or false when the queue is empty.
func (q *eventQueue[E]) peek() (Time, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].at, true
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue[E]) pop() (Time, E) {
	head := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = entry[E]{} // drop the payload's references
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return head.at, head.ev
}

func (q *eventQueue[E]) up(i int) {
	x := q.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = x
}

func (q *eventQueue[E]) down(i int) {
	n := len(q.items)
	x := q.items[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.items[r].before(&q.items[child]) {
			child = r
		}
		if !q.items[child].before(&x) {
			break
		}
		q.items[i] = q.items[child]
		i = child
	}
	q.items[i] = x
}
