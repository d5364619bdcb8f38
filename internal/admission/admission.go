// Package admission is the daemon's intake fairness layer: a bounded,
// weighted fair queue that sits between HTTP submission and the shard
// workers. Before it existed the shard queue was a plain FIFO channel —
// one flooding tenant filled it and every other tenant ate the 429s.
//
// The controller runs two-level deficit round-robin with unit cost (one
// submission = one service unit):
//
//   - the outer level rotates over the three priority classes
//     (high/normal/low) with fixed weights 4:2:1 — a higher class gets a
//     larger service *share* under backlog, never an absolute priority,
//     so low-class work cannot starve and a low-class flood cannot
//     invert a high-class submission by more than one DRR round;
//   - the inner level rotates over the backlogged tenants of the class,
//     weighted by the tenant's submitted wire weight (0 means 1), so over
//     any window in which a set of tenants stays backlogged each
//     tenant's service count tracks its weighted share to within one
//     maximum-weight quantum (the classic DRR fairness bound).
//
// Backlog is bounded per tenant and in total; a rejected enqueue carries
// an honest Retry-After derived from the controller's measured drain
// rate and the tenant's weighted share of it — under sustained overload
// the advice grows with the queue instead of parroting "1".
//
// A controller has one consumer, the shard's worker, which folds it into
// its select loop: Ready wakes it, TryDequeue serves one item per wakeup,
// and Drained tells it when to stop watching. Nothing blocks.
//
// The controller decides only the order and the bounds. How deep the
// backlog is never changes how a dequeued submission is planned: every
// one is planned by its own policy.
package admission

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"aheft/internal/wire"
)

// Class weights for the outer DRR level. Shares, not priorities: under
// full backlog high:normal:low service is 4:2:1.
const (
	ClassWeightHigh   = 4
	ClassWeightNormal = 2
	ClassWeightLow    = 1
)

// classIndex maps a wire class to its dense index (and canonical order
// for metrics). ClassNames mirrors it.
var ClassNames = [3]string{wire.ClassHigh, wire.ClassNormal, wire.ClassLow}

// ClassIndex returns the dense index of a wire admission class ("" means
// normal); ok is false for unknown classes.
func ClassIndex(class string) (int, bool) {
	switch class {
	case wire.ClassHigh:
		return 0, true
	case "", wire.ClassNormal:
		return 1, true
	case wire.ClassLow:
		return 2, true
	default:
		return 0, false
	}
}

var classWeights = [3]float64{ClassWeightHigh, ClassWeightNormal, ClassWeightLow}

// Config tunes one controller (one per shard).
type Config struct {
	// PerTenantBacklog caps one tenant's queued submissions; at the cap
	// further enqueues for that tenant are rejected (HTTP 429 upstream).
	// 0 means 64; negative means unbounded.
	PerTenantBacklog int
	// TotalBacklog caps the whole controller; 0 means 1024, negative
	// unbounded.
	TotalBacklog int
	// Now is the clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.PerTenantBacklog == 0 {
		c.PerTenantBacklog = 64
	}
	if c.TotalBacklog == 0 {
		c.TotalBacklog = 1024
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Item is one queued submission.
type Item struct {
	// ID is the workflow ID (metrics and WAL journaling key).
	ID string
	// Tenant scopes the fair queue; Class and Weight come from the
	// submission's wire options (already validated).
	Tenant string
	Class  string
	Weight float64
	// Value is the opaque payload the shard dequeues (the server's
	// workflow object).
	Value any

	enqueuedAt time.Time
	seq        uint64 // arrival number: Queued's order
}

// Dequeued is one admission decision: the item plus how it was served.
type Dequeued struct {
	Item Item
	// Queued is how long the item waited in the controller.
	Queued time.Duration
}

// BacklogError is a bounded-backlog rejection; RetryAfter is the
// drain-rate-derived advice in whole seconds (≥ 1).
type BacklogError struct {
	Tenant     string
	Depth      int
	RetryAfter int
	Total      bool // the *controller* was full, not the tenant's queue
}

func (e *BacklogError) Error() string {
	if e.Total {
		return fmt.Sprintf("admission: backlog full (%d queued); retry after %ds", e.Depth, e.RetryAfter)
	}
	return fmt.Sprintf("admission: tenant %q backlog full (%d queued); retry after %ds", e.Tenant, e.Depth, e.RetryAfter)
}

// ErrClosed rejects enqueues after Close (drain).
var ErrClosed = fmt.Errorf("admission: controller closed")

// tenantQueue is one inner-DRR flow.
type tenantQueue struct {
	name    string
	weight  float64 // latest submitted weight (0-weight submissions count as 1)
	deficit float64
	items   []Item
	head    int
}

func (q *tenantQueue) depth() int { return len(q.items) - q.head }

func (q *tenantQueue) push(it Item) { q.items = append(q.items, it) }

func (q *tenantQueue) pop() Item {
	it := q.items[q.head]
	q.items[q.head] = Item{} // release the payload for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

// classQueue is one outer-DRR flow: a ring of backlogged tenant queues.
type classQueue struct {
	deficit float64
	ring    []*tenantQueue // backlogged tenants, round-robin order
	idx     int
	tenants map[string]*tenantQueue // all tenants ever seen (keeps weights)
	depth   int
}

// Controller is one shard's admission queue: any number of producers
// Enqueue, and one consumer — the shard's worker — takes items in
// two-level DRR order through Ready/TryDequeue/Drained. Close stops
// intake and lets the consumer drain what is queued: TryDequeue keeps
// serving it, and Drained turns true once it is empty. Kill stops both
// at once: TryDequeue yields nothing more and Drained is true, whatever
// is left queued. No method blocks; all are safe for concurrent use.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	classes [3]classQueue
	classIx int
	total   int
	arrived uint64 // enqueues so far; numbers each item

	closed bool // no new enqueues; TryDequeue drains the rest
	killed bool // TryDequeue yields nothing more (force shutdown)

	// notify is the consumer's wakeup: a capacity-1 signal channel that
	// receives after an Enqueue and is closed by Close/Kill, so the
	// consumer folds admission into its own select (see Ready).
	notify chan struct{}

	// Drain-rate EWMA (dequeues per second) for Retry-After.
	rate    float64
	lastDeq time.Time
}

// New builds a controller.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults(), notify: make(chan struct{}, 1)}
	for i := range c.classes {
		c.classes[i].tenants = make(map[string]*tenantQueue)
	}
	return c
}

// Enqueue adds a submission to its tenant's queue, rejecting on bounded
// backlog (a *BacklogError with drain-derived Retry-After) or after
// Close (ErrClosed).
func (c *Controller) Enqueue(it Item) error { return c.enqueue(it, true) }

// Readmit re-enqueues a submission admitted before a restart. The
// backlog bounds judged it then and are not applied again: with the item
// a worker had already taken out of the queue, a tenant's accepted
// submissions can outnumber its bound.
func (c *Controller) Readmit(it Item) error { return c.enqueue(it, false) }

func (c *Controller) enqueue(it Item, bounded bool) error {
	ci, ok := ClassIndex(it.Class)
	if !ok {
		return fmt.Errorf("admission: unknown class %q", it.Class)
	}
	if it.Weight <= 0 {
		it.Weight = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.killed {
		return ErrClosed
	}
	cq := &c.classes[ci]
	q := cq.tenants[it.Tenant]
	if q == nil {
		q = &tenantQueue{name: it.Tenant}
		cq.tenants[it.Tenant] = q
	}
	if max := c.cfg.TotalBacklog; bounded && max > 0 && c.total >= max {
		return &BacklogError{Tenant: it.Tenant, Depth: c.total, RetryAfter: c.retryAfterLocked(ci, q, c.total), Total: true}
	}
	if max := c.cfg.PerTenantBacklog; bounded && max > 0 && q.depth() >= max {
		return &BacklogError{Tenant: it.Tenant, Depth: q.depth(), RetryAfter: c.retryAfterLocked(ci, q, q.depth())}
	}
	q.weight = it.Weight
	it.enqueuedAt = c.cfg.Now()
	c.arrived++
	it.seq = c.arrived
	if q.depth() == 0 {
		// Tenant becomes backlogged: join the class ring with a fresh
		// deficit (DRR credit does not survive idleness).
		q.deficit = 0
		cq.ring = append(cq.ring, q)
	}
	q.push(it)
	cq.depth++
	c.total++
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return nil
}

// Ready returns the controller's signal channel: it receives after an
// Enqueue (and after a TryDequeue that left work behind) and is closed
// by Close/Kill. A single-goroutine consumer selects on it and serves
// one TryDequeue per wakeup, so admission interleaves fairly with the
// consumer's other channels instead of monopolising its loop.
func (c *Controller) Ready() <-chan struct{} { return c.notify }

// TryDequeue serves the next submission in two-level DRR order, or
// reports ok=false when nothing is queued (or the controller was
// killed). When items remain after the take, the signal channel is
// re-armed so the consumer's next select fires again.
func (c *Controller) TryDequeue() (d Dequeued, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed || c.total == 0 {
		return Dequeued{}, false
	}
	it := c.nextLocked()
	now := c.cfg.Now()
	c.observeDrainLocked(now)
	if c.total > 0 && !c.closed && !c.killed {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
	return Dequeued{Item: it, Queued: now.Sub(it.enqueuedAt)}, true
}

// Queued returns the items waiting in the queue in arrival order, the
// order their enqueues succeeded.
func (c *Controller) Queued() []Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	items := make([]Item, 0, c.total)
	for i := range c.classes {
		for _, q := range c.classes[i].ring {
			items = append(items, q.items[q.head:]...)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].seq < items[j].seq })
	return items
}

// Drained reports that the controller will never yield another item:
// closed and empty, or killed. A select-loop consumer uses this to stop
// watching Ready once the post-close drain completes.
func (c *Controller) Drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed || (c.closed && c.total == 0)
}

// Saturated reports the total backlog cap is reached: any Enqueue of
// any tenant would be rejected right now. Always false when the total
// bound is disabled.
func (c *Controller) Saturated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.TotalBacklog > 0 && c.total >= c.cfg.TotalBacklog
}

// nextLocked serves one unit of two-level DRR. Caller holds the lock and
// guarantees total > 0.
func (c *Controller) nextLocked() Item {
	for {
		cq := &c.classes[c.classIx]
		if cq.depth == 0 {
			cq.deficit = 0 // idle classes accrue no credit
			c.classIx = (c.classIx + 1) % len(c.classes)
			cq = &c.classes[c.classIx]
			cq.deficit += classWeights[c.classIx]
			continue
		}
		if cq.deficit < 1 {
			c.classIx = (c.classIx + 1) % len(c.classes)
			next := &c.classes[c.classIx]
			next.deficit += classWeights[c.classIx]
			continue
		}
		cq.deficit--
		it := cq.nextTenantLocked()
		cq.depth--
		c.total--
		return it
	}
}

// nextTenantLocked serves one unit of the class's inner tenant DRR.
// Caller guarantees cq.depth > 0.
func (cq *classQueue) nextTenantLocked() Item {
	for {
		q := cq.ring[cq.idx]
		if q.depth() == 0 {
			// Defensive: ring members are backlogged by construction, but
			// an empty one just leaves; the next slides into this slot.
			cq.ring = append(cq.ring[:cq.idx], cq.ring[cq.idx+1:]...)
			if cq.idx >= len(cq.ring) {
				cq.idx = 0
			}
			if len(cq.ring) > 0 {
				cq.ring[cq.idx].deficit += cq.ring[cq.idx].weight
			}
			continue
		}
		if q.deficit < 1 {
			cq.idx = (cq.idx + 1) % len(cq.ring)
			next := cq.ring[cq.idx]
			next.deficit += next.weight
			continue
		}
		q.deficit--
		it := q.pop()
		if q.depth() == 0 {
			cq.ring = append(cq.ring[:cq.idx], cq.ring[cq.idx+1:]...)
			if len(cq.ring) > 0 && cq.idx >= len(cq.ring) {
				cq.idx = 0
			}
		}
		return it
	}
}

// observeDrainLocked folds one dequeue into the drain-rate EWMA.
func (c *Controller) observeDrainLocked(now time.Time) {
	if !c.lastDeq.IsZero() {
		if dt := now.Sub(c.lastDeq).Seconds(); dt > 0 {
			inst := 1 / dt
			if c.rate == 0 {
				c.rate = inst
			} else {
				c.rate = 0.8*c.rate + 0.2*inst
			}
		}
	}
	c.lastDeq = now
}

// retryAfterLocked derives honest backpressure advice: the time for the
// tenant's backlog to drain at its weighted share of the measured drain
// rate, clamped to [1, 60] seconds. With no drain observed yet (cold
// controller) the depth itself, in seconds, is the only honest guess.
func (c *Controller) retryAfterLocked(ci int, q *tenantQueue, depth int) int {
	clamp := func(s float64) int {
		if s < 1 || math.IsNaN(s) {
			return 1
		}
		if s > 60 {
			return 60
		}
		return int(math.Ceil(s))
	}
	if c.rate <= 0 {
		return clamp(float64(depth))
	}
	// The tenant's share of the drain: its weight within its class times
	// the class's share across the backlogged classes.
	w := q.weight
	if w <= 0 {
		w = 1
	}
	tenantSum := 0.0
	for _, tq := range c.classes[ci].ring {
		tenantSum += tq.weight
	}
	if q.depth() == 0 || tenantSum <= 0 {
		tenantSum += w // the rejected submission would have joined the ring
	}
	classSum := 0.0
	for i := range c.classes {
		if c.classes[i].depth > 0 || i == ci {
			classSum += classWeights[i]
		}
	}
	share := (w / tenantSum) * (classWeights[ci] / classSum)
	if share <= 0 {
		return 60
	}
	return clamp(float64(depth) / (c.rate * share))
}

// RetryAfter returns the current drain-derived advice for a tenant
// outside the enqueue path (the server's pre-intake overload check).
func (c *Controller) RetryAfter(tenant, class string) int {
	ci, ok := ClassIndex(class)
	if !ok {
		ci = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.classes[ci].tenants[tenant]
	if q == nil {
		q = &tenantQueue{name: tenant, weight: 1}
	}
	depth := q.depth()
	if depth == 0 {
		depth = c.total
	}
	if depth == 0 {
		return 1
	}
	return c.retryAfterLocked(ci, q, depth)
}

// Close stops intake; queued submissions still drain through
// TryDequeue, and Drained reports true once they are gone. For graceful
// shutdown.
func (c *Controller) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.notify)
	}
	c.mu.Unlock()
}

// Kill stops intake and service immediately: TryDequeue yields nothing
// more and Drained is true. For forced shutdown.
func (c *Controller) Kill() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.notify)
	}
	c.killed = true
	c.mu.Unlock()
}

// Snapshot is the controller's metrics view.
type Snapshot struct {
	// Total is the queued submission count; PerTenant its per-tenant
	// breakdown (backlogged tenants only).
	Total     int
	PerTenant map[string]int
	// DrainRate is the EWMA dequeue rate in submissions per second.
	DrainRate float64
}

// Stats returns the current queue state for /metrics.
func (c *Controller) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Total: c.total, PerTenant: make(map[string]int), DrainRate: c.rate}
	for i := range c.classes {
		for name, q := range c.classes[i].tenants {
			if d := q.depth(); d > 0 {
				s.PerTenant[name] += d
			}
		}
	}
	return s
}
