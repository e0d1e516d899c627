package serve

import "sync"

// fairQueue dispatches round-robin across tenants (DESIGN.md §13): jobs
// wait in one FIFO per tenant, and the tenants with queued jobs wait in a
// ring. Pop serves the head tenant's oldest job and moves the tenant to
// the back if it has more, so a flood from one tenant delays another's
// next job by one job per busy tenant, not by the flood. A tenant that
// comes back from idle joins at the back: it banks no turns while away.
type fairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	fifos  map[string][]*job // per-tenant FIFOs; only non-empty ones are kept
	ring   []string          // tenants with queued jobs, in dispatch order
	queued int               // total queued jobs across tenants
	closed bool
}

func newFairQueue() *fairQueue {
	q := &fairQueue{fifos: make(map[string][]*job)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends a job to its tenant's FIFO and wakes one waiter. The
// queue-depth check happens at admission; Push fails only after Close.
func (q *fairQueue) Push(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if len(q.fifos[j.tenant]) == 0 {
		q.ring = append(q.ring, j.tenant)
	}
	q.fifos[j.tenant] = append(q.fifos[j.tenant], j)
	q.queued++
	q.cond.Signal()
	return true
}

// Pop blocks for the next job in round-robin order; nil once closed.
func (q *fairQueue) Pop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.ring) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil
	}
	tenant := q.ring[0]
	q.ring = q.ring[1:]
	fifo := q.fifos[tenant]
	j := fifo[0]
	fifo[0] = nil
	if len(fifo) == 1 {
		delete(q.fifos, tenant)
	} else {
		q.fifos[tenant] = fifo[1:]
		q.ring = append(q.ring, tenant)
	}
	q.queued--
	return j
}

// Len returns the total number of queued jobs.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// TenantQueued returns how many jobs one tenant has queued.
func (q *fairQueue) TenantQueued(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.fifos[tenant])
}

// Ahead counts the jobs still queued (not canceled) that were submitted
// before j, across all tenants' FIFOs. The caller holds Server.mu, which
// guards job state.
func (q *fairQueue) Ahead(j *job) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, fifo := range q.fifos {
		for _, f := range fifo {
			if f.seq < j.seq && f.state == StateQueued {
				n++
			}
		}
	}
	return n
}

// Close wakes every Pop waiter with nil. Jobs still queued are abandoned;
// the draining server has already marked them canceled.
func (q *fairQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
