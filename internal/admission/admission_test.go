package admission

import (
	"fmt"
	"math"
	"testing"
	"time"

	"aheft/internal/rng"
	"aheft/internal/wire"
)

// fakeClock is a deterministic, manually advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestController(cfg Config) (*Controller, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg.Now = clk.now
	return New(cfg), clk
}

func enqueueN(t *testing.T, c *Controller, tenant, class string, weight float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := c.Enqueue(Item{
			ID: fmt.Sprintf("%s-%d", tenant, i), Tenant: tenant, Class: class, Weight: weight,
		})
		if err != nil {
			t.Fatalf("enqueue %s #%d: %v", tenant, i, err)
		}
	}
}

// TestWFQProportionality is the property test of the DRR invariant: over
// any admission window during which a set of same-class tenants stays
// backlogged, each tenant's service count is within one maximum-weight
// submission quantum of its weighted proportional share. Weights are
// drawn from a seeded generator over several trials, so the property is
// exercised across weight spreads, not one hand-picked table.
func TestWFQProportionality(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		nTenants := 2 + int(r.Uniform(0, 5)) // 2..6
		weights := make([]float64, nTenants)
		maxW, sumW := 0.0, 0.0
		for i := range weights {
			weights[i] = math.Round(r.Uniform(0.5, 8)*2) / 2 // 0.5 steps in [0.5, 8]
			sumW += weights[i]
			if weights[i] > maxW {
				maxW = weights[i]
			}
		}
		c, _ := newTestController(Config{PerTenantBacklog: -1, TotalBacklog: -1})
		// Everyone backlogged deeply enough to stay backlogged through the
		// whole window.
		window := 40 * nTenants
		for i, w := range weights {
			enqueueN(t, c, fmt.Sprintf("t%d", i), "", w, window)
		}
		served := make(map[string]int)
		for i := 0; i < window; i++ {
			d, ok := c.Dequeue()
			if !ok {
				t.Fatalf("trial %d: controller drained early at %d", trial, i)
			}
			served[d.Item.Tenant]++
		}
		for i, w := range weights {
			name := fmt.Sprintf("t%d", i)
			expect := float64(window) * w / sumW
			if dev := math.Abs(float64(served[name]) - expect); dev > maxW+1 {
				t.Fatalf("trial %d: tenant %s (w=%g) served %d of %d, expected %.1f±%.1f (weights %v)",
					trial, name, w, served[name], window, expect, maxW+1, weights)
			}
		}
	}
}

// TestStarvationFreedom: neither a featherweight tenant inside a class
// nor the low class under a high-class flood waits unboundedly.
func TestStarvationFreedom(t *testing.T) {
	t.Run("light tenant vs heavy tenant", func(t *testing.T) {
		c, _ := newTestController(Config{PerTenantBacklog: -1, TotalBacklog: -1})
		enqueueN(t, c, "whale", "", wire.MaxWeight, 5000)
		enqueueN(t, c, "shrimp", "", 0.5, 1)
		// The shrimp's deficit tops up by 0.5 per ring visit: it must be
		// served within two full DRR rounds, i.e. while the whale has at
		// most ~2·MaxWeight services.
		for i := 0; i < 2*wire.MaxWeight+4; i++ {
			d, ok := c.Dequeue()
			if !ok {
				t.Fatal("drained early")
			}
			if d.Item.Tenant == "shrimp" {
				return
			}
		}
		t.Fatal("light tenant starved behind heavy tenant")
	})
	t.Run("low class vs high flood", func(t *testing.T) {
		c, _ := newTestController(Config{PerTenantBacklog: -1, TotalBacklog: -1})
		enqueueN(t, c, "flood", wire.ClassHigh, 1, 1000)
		enqueueN(t, c, "patient", wire.ClassLow, 1, 1)
		// One full class round serves at most high(4)+normal(2) units
		// before low's quantum of 1 comes due.
		for i := 0; i < ClassWeightHigh+ClassWeightNormal+ClassWeightLow+2; i++ {
			d, ok := c.Dequeue()
			if !ok {
				t.Fatal("drained early")
			}
			if d.Item.Tenant == "patient" {
				return
			}
		}
		t.Fatal("low class starved under high-class flood")
	})
}

// TestPriorityInversion: table test that a flood in a lower class cannot
// hold up a single higher-class submission beyond one DRR class round.
func TestPriorityInversion(t *testing.T) {
	roundLen := ClassWeightHigh + ClassWeightNormal + ClassWeightLow
	cases := []struct {
		name        string
		floodClass  string
		victimClass string
		within      int
	}{
		{"low flood vs high submission", wire.ClassLow, wire.ClassHigh, roundLen},
		{"low flood vs normal submission", wire.ClassLow, wire.ClassNormal, roundLen},
		{"normal flood vs high submission", wire.ClassNormal, wire.ClassHigh, roundLen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newTestController(Config{PerTenantBacklog: -1, TotalBacklog: -1})
			enqueueN(t, c, "flood", tc.floodClass, wire.MaxWeight, 500)
			enqueueN(t, c, "victim", tc.victimClass, 1, 1)
			for i := 0; i < tc.within; i++ {
				d, ok := c.Dequeue()
				if !ok {
					t.Fatal("drained early")
				}
				if d.Item.Tenant == "victim" {
					return
				}
			}
			t.Fatalf("%s: victim not served within %d dequeues", tc.name, tc.within)
		})
	}
}

// TestRetryAfterGrowsUnderOverload is the 429 regression test: the
// advice must be derived from drain rate and queue depth, growing as a
// sustained overload deepens the backlog — not a fixed constant.
func TestRetryAfterGrowsUnderOverload(t *testing.T) {
	c, clk := newTestController(Config{PerTenantBacklog: 200, TotalBacklog: -1})
	// Establish a measured drain rate of one submission per 2 seconds.
	enqueueN(t, c, "t", "", 1, 20)
	for i := 0; i < 20; i++ {
		clk.advance(2 * time.Second)
		if _, ok := c.Dequeue(); !ok {
			t.Fatal("drained early")
		}
	}
	// Sustained overload: backlog deepens, nothing drains.
	var last int
	var samples []int
	for depth := 10; depth <= 160; depth *= 2 {
		for c.Stats().Total < depth {
			err := c.Enqueue(Item{ID: fmt.Sprintf("o-%d", c.Stats().Total), Tenant: "t", Weight: 1})
			if err != nil {
				t.Fatalf("enqueue at depth %d: %v", c.Stats().Total, err)
			}
		}
		ra := c.RetryAfter("t", "")
		samples = append(samples, ra)
		if ra < last {
			t.Fatalf("Retry-After shrank under deepening overload: %v", samples)
		}
		last = ra
	}
	if samples[0] == samples[len(samples)-1] {
		t.Fatalf("Retry-After did not grow under sustained overload: %v", samples)
	}
	// At ~0.5/s drain and 160 queued, the advice must not be the old
	// hardcoded "1".
	if last < 2 {
		t.Fatalf("Retry-After stuck at %d despite 160-deep backlog at 0.5/s drain", last)
	}
	// A rejected enqueue carries the same honest advice.
	for {
		err := c.Enqueue(Item{ID: "x", Tenant: "t", Weight: 1})
		if err != nil {
			be, ok := err.(*BacklogError)
			if !ok {
				t.Fatalf("unexpected rejection type: %v", err)
			}
			if be.RetryAfter < 2 {
				t.Fatalf("rejection Retry-After = %d, want drain-derived value > 1", be.RetryAfter)
			}
			break
		}
	}
}

// TestBoundedBacklog: per-tenant and total caps reject with typed errors
// and the caps hold exactly.
func TestBoundedBacklog(t *testing.T) {
	c, _ := newTestController(Config{PerTenantBacklog: 3, TotalBacklog: 5})
	enqueueN(t, c, "a", "", 1, 3)
	err := c.Enqueue(Item{ID: "a-over", Tenant: "a"})
	be, ok := err.(*BacklogError)
	if !ok || be.Total || be.Tenant != "a" || be.Depth != 3 {
		t.Fatalf("per-tenant rejection = %v", err)
	}
	enqueueN(t, c, "b", "", 1, 2)
	err = c.Enqueue(Item{ID: "c-over", Tenant: "c"})
	be, ok = err.(*BacklogError)
	if !ok || !be.Total || be.Depth != 5 {
		t.Fatalf("total rejection = %v", err)
	}
	if s := c.Stats(); s.Total != 5 || s.PerTenant["a"] != 3 || s.PerTenant["b"] != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCloseDrainsThenStops: Close rejects new work but serves the rest;
// Kill stops service immediately and DrainAll yields the leftovers in
// fair order.
func TestCloseDrainsThenStops(t *testing.T) {
	c, _ := newTestController(Config{})
	enqueueN(t, c, "t", "", 1, 3)
	c.Close()
	if err := c.Enqueue(Item{ID: "late", Tenant: "t"}); err != ErrClosed {
		t.Fatalf("enqueue after close = %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Dequeue(); !ok {
			t.Fatalf("dequeue %d after close failed", i)
		}
	}
	if _, ok := c.Dequeue(); ok {
		t.Fatal("drained controller still serving")
	}

	k, _ := newTestController(Config{})
	enqueueN(t, k, "a", "", 1, 2)
	enqueueN(t, k, "b", "", 1, 2)
	k.Kill()
	if _, ok := k.Dequeue(); ok {
		t.Fatal("killed controller still serving")
	}
	left := k.DrainAll()
	if len(left) != 4 {
		t.Fatalf("DrainAll returned %d items, want 4", len(left))
	}
	if s := k.Stats(); s.Total != 0 {
		t.Fatalf("stats after DrainAll = %+v", s)
	}
}

// TestDequeueBlocksUntilEnqueue: a waiting pump wakes on new work.
func TestDequeueBlocksUntilEnqueue(t *testing.T) {
	c, _ := newTestController(Config{})
	got := make(chan string, 1)
	go func() {
		d, ok := c.Dequeue()
		if ok {
			got <- d.Item.ID
		} else {
			got <- ""
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := c.Enqueue(Item{ID: "wf-1", Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-got:
		if id != "wf-1" {
			t.Fatalf("dequeued %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Dequeue did not wake on Enqueue")
	}
}

// TestUnknownClassRejected guards the intake contract.
func TestUnknownClassRejected(t *testing.T) {
	c, _ := newTestController(Config{})
	if err := c.Enqueue(Item{ID: "x", Tenant: "t", Class: "urgent"}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// TestSelectLoopContract exercises the Ready/TryDequeue face: every
// enqueued item is eventually observable through a select on Ready, the
// signal re-arms while items remain, and Close ends the loop exactly
// once the post-close drain completes.
func TestSelectLoopContract(t *testing.T) {
	c, _ := newTestController(Config{})
	for i := 0; i < 5; i++ {
		enqueueN(t, c, "t", wire.ClassNormal, 1, 1)
	}
	got := 0
	ready := c.Ready()
	for ready != nil {
		select {
		case _, ok := <-ready:
			if d, served := c.TryDequeue(); served {
				got++
				_ = d
			}
			if !ok || c.Drained() {
				if c.Drained() {
					ready = nil
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("select loop stalled with %d served", got)
		}
		if got == 3 {
			// Close mid-drain: the remaining two must still be served.
			c.Close()
		}
	}
	if got != 5 {
		t.Fatalf("served %d of 5", got)
	}
	if _, ok := c.TryDequeue(); ok {
		t.Fatal("TryDequeue yielded after drained")
	}
}

// TestSaturatedAndDepth: the gauges agree with the bounds.
func TestSaturatedAndDepth(t *testing.T) {
	c, _ := newTestController(Config{TotalBacklog: 3})
	if c.Saturated() {
		t.Fatal("empty controller saturated")
	}
	enqueueN(t, c, "t", wire.ClassNormal, 1, 3)
	if !c.Saturated() {
		t.Fatal("full controller not saturated")
	}
	if c.Depth() != 3 {
		t.Fatalf("depth = %d", c.Depth())
	}
	if err := c.Enqueue(Item{ID: "x", Tenant: "t"}); err == nil {
		t.Fatal("enqueue past total bound accepted")
	}
	c.Kill()
	if !c.Drained() {
		t.Fatal("killed controller not drained")
	}
}
