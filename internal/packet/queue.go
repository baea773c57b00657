package packet

// Queue is a FIFO of cells linked through the cells themselves: a head
// and tail pointer plus a length, with the link in each queued cell.
// Pushing never allocates, and a queue holding no cells costs its
// 24-byte header and nothing else, so engines can keep one per (input,
// output, class) at any depth. The link field is unexported, so only
// this type writes it; a cell sits in at most one queue at a time.
//
// The length alone says which links are live: a popped cell keeps its
// stale link, and an emptied queue keeps its stale head and tail. Every
// pointer store costs a write barrier while the garbage collector is
// marking, so Push stores two pointers and Pop at most one, and the
// links that are never read are never cleared. The stale pointers only
// keep reachable cells that the allocators recycle anyway.
type Queue struct {
	head, tail *Cell
	n          int
}

// Len reports the number of queued cells.
func (q *Queue) Len() int { return q.n }

// Push appends a cell, which must not be in any queue.
//
//osmosis:hotpath
//osmosis:shardsafe
func (q *Queue) Push(c *Cell) {
	if q.n == 0 {
		q.head = c
	} else {
		q.tail.next = c
	}
	q.tail = c
	q.n++
}

// Pop removes and returns the oldest cell, or nil if empty.
//
//osmosis:hotpath
//osmosis:shardsafe
func (q *Queue) Pop() *Cell {
	if q.n == 0 {
		return nil
	}
	c := q.head
	q.n--
	if q.n > 0 {
		q.head = c.next
	}
	return c
}

// Peek returns the oldest cell without removing it, or nil.
func (q *Queue) Peek() *Cell {
	if q.n == 0 {
		return nil
	}
	return q.head
}

// Each calls fn for every queued cell, oldest first. fn must not push
// to or pop from q.
func (q *Queue) Each(fn func(*Cell)) {
	c := q.head
	for i := 0; i < q.n; i++ {
		fn(c)
		c = c.next
	}
}
