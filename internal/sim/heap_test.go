package sim

// newEngineWithQueue builds an engine over an explicit queue implementation
// (the differential tests drive a heap-backed engine against the wheel).
func newEngineWithQueue(q eventQueue) *Engine {
	return &Engine{queue: q}
}

// heapQueue is the binary-heap reference implementation, ordered by
// (when, seq). It predates the timing wheel and is retained as the oracle
// the wheel is differentially tested against. It keeps its own index of
// each node's position, so eventNode carries nothing for it.
type heapQueue struct {
	nodes []*eventNode
	index map[*eventNode]int
}

func newHeapQueue() *heapQueue { return &heapQueue{index: make(map[*eventNode]int)} }

func (q *heapQueue) name() string { return "heap" }

func (q *heapQueue) Len() int { return len(q.nodes) }

func (q *heapQueue) less(i, j int) bool {
	a, b := q.nodes[i], q.nodes[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *heapQueue) swap(i, j int) {
	q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i]
	q.index[q.nodes[i]] = i
	q.index[q.nodes[j]] = j
}

func (q *heapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *heapQueue) down(i int) {
	n := len(q.nodes)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q.swap(i, least)
		i = least
	}
}

func (q *heapQueue) Schedule(n *eventNode, _ Time) {
	q.index[n] = len(q.nodes)
	q.nodes = append(q.nodes, n)
	q.up(len(q.nodes) - 1)
}

func (q *heapQueue) Remove(n *eventNode) {
	i := q.index[n]
	last := len(q.nodes) - 1
	if i != last {
		q.swap(i, last)
	}
	delete(q.index, n)
	q.nodes[last] = nil
	q.nodes = q.nodes[:last]
	if i != last {
		q.down(i)
		q.up(i)
	}
}

func (q *heapQueue) PopMin() *eventNode {
	if len(q.nodes) == 0 {
		return nil
	}
	n := q.nodes[0]
	q.Remove(n)
	return n
}

func (q *heapQueue) PeekWhen() (Time, bool) {
	if len(q.nodes) == 0 {
		return 0, false
	}
	return q.nodes[0].when, true
}
