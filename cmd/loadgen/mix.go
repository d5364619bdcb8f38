package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aheft/internal/rng"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

// class is one workload family of the mix with its pre-encoded analytic
// submissions (and, for -drive, the scenarios the enactment loop replays).
type class struct {
	name      string
	weight    int
	bodies    [][]byte
	scenarios []*workload.Scenario
}

// mix is the weighted set of classes -mix names.
type mix struct {
	classes []class
	total   int
}

// buildMix pre-generates the -mix classes and registers them as the
// report's class rows when the mode keeps their scenarios.
func (r *run) buildMix(keepScenarios bool) *mix {
	m, err := parseMix(*mixSpec, keepScenarios)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	for _, c := range m.classes {
		log.Printf("loadgen: class %-8s weight %3d, %d variants, ~%d KiB each",
			c.name, c.weight, len(c.bodies), len(c.bodies[0])>>10)
		if keepScenarios {
			r.classes(c.name)
		}
	}
	return m
}

func parseMix(spec string, keepScenarios bool) (*mix, error) {
	weights := map[string]int{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q", part)
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		weights[kv[0]] = w
	}
	r := rng.New(*seed)
	grid := workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4}
	stress := workload.GridParams{InitialResources: 16, ChangeInterval: 500, ChangePct: 0.25, MaxEvents: 4}
	app := workload.AppParams{Parallelism: *parallelism, CCR: 1, Beta: 0.5}
	m := &mix{}
	for _, fam := range []struct {
		name string
		make func() (*workload.Scenario, error)
	}{
		{"random", func() (*workload.Scenario, error) {
			return workload.RandomScenario(workload.RandomParams{Jobs: randomJobs, CCR: 2, OutDegree: 0.3, Beta: 0.5}, grid, r)
		}},
		{"blast", func() (*workload.Scenario, error) { return workload.BlastScenario(app, grid, r) }},
		{"wien2k", func() (*workload.Scenario, error) { return workload.Wien2kScenario(app, grid, r) }},
		{"layered", func() (*workload.Scenario, error) {
			return workload.LayeredScenario(workload.LayeredParams{
				Jobs: *layeredJobs, Width: *layeredJobs / 50, FanIn: 3, CCR: 1, Beta: 0.5}, stress, r)
		}},
	} {
		c := class{name: fam.name, weight: weights[fam.name]}
		delete(weights, fam.name)
		if c.weight == 0 {
			continue
		}
		for i := 0; i < mixVariants; i++ {
			sc, err := fam.make()
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", c.name, err)
			}
			body, err := wire.EncodeSubmission(&wire.Submission{
				Name:   fmt.Sprintf("%s-%d", c.name, i),
				Policy: policyName,
				Graph:  sc.Graph, Comp: sc.Table, Pool: sc.Pool,
			})
			if err != nil {
				return nil, fmt.Errorf("encode %s: %w", c.name, err)
			}
			c.bodies = append(c.bodies, body)
			// Only -drive replays the decoded scenarios; a plain load run
			// uses the encoded bodies alone, and keeping 20k-job graphs
			// and tables alive for the whole run would waste memory.
			if keepScenarios {
				c.scenarios = append(c.scenarios, sc)
			}
		}
		m.classes = append(m.classes, c)
		m.total += c.weight
	}
	for name := range weights {
		return nil, fmt.Errorf("unknown mix class %q", name)
	}
	if len(m.classes) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	return m, nil
}

// pick draws a class by weight, then one of its variants.
func (m *mix) pick(r *rng.Source) (c *class, variant int) {
	n := r.IntN(m.total)
	c = &m.classes[len(m.classes)-1]
	for i := range m.classes {
		if n < m.classes[i].weight {
			c = &m.classes[i]
			break
		}
		n -= m.classes[i].weight
	}
	return c, r.IntN(len(c.bodies))
}

// follow is the load path's unit: submit one analytic workflow (the
// client rides out 429 backpressure), then watch it to a terminal state.
func (r *run) follow(body []byte) {
	start := time.Now()
	id, retries, err := r.c.Submit(context.Background(), body)
	r.add(&r.rep.Retries429, retries)
	if err != nil {
		r.fail("", "%v", err)
		return
	}
	// Follow a bounded sample of workflows over SSE — real subscribers
	// on the event fan-out, so the daemon's events_dropped counter (and
	// -require-zero-drops) guards a path that is actually exercised —
	// and poll the rest.
	select {
	case r.followSem <- struct{}{}:
		defer func() { <-r.followSem }()
		r.followSSE(id, start)
	default:
		r.pollDone(id, start)
	}
}

// pollDone polls the workflow's status to a terminal state.
func (r *run) pollDone(id string, start time.Time) {
	interval := *poll
	netErrs := 0
	for {
		time.Sleep(interval)
		if interval < 500*time.Millisecond {
			interval = interval * 3 / 2
		}
		st, err := r.c.Status(context.Background(), id)
		if err != nil {
			if netErrs++; netErrs > 5 {
				r.fail("", "%v", err)
				return
			}
			r.add(&r.rep.TransportRetries, 1)
			continue
		}
		netErrs = 0
		switch st.State {
		case server.StateDone:
			r.done(start, st.ComputeMs)
			return
		case server.StateFailed:
			r.fail("", "workflow %s: %s", id, st.Error)
			return
		}
	}
}

// followSSE consumes the workflow's event stream to its terminal event,
// counting any client-observed Seq gap (a drop for this subscriber). A
// transport fault on the stream falls back to polling rather than
// declaring the workflow failed. The stream is the one request that does
// not go through drive.Client: it is a long-lived body, not a document.
func (r *run) followSSE(id string, start time.Time) {
	r.add(&r.rep.Followed, 1)
	resp, err := r.c.HTTP.Get(r.c.Base + "/v1/workflows/" + id + "/events")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		r.add(&r.rep.TransportRetries, 1)
		r.pollDone(id, start)
		return
	}
	defer resp.Body.Close()
	lastSeq := -1
	var last wire.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			r.fail("", "follow %s: bad SSE payload: %v", id, err)
			return
		}
		if ev.Seq != lastSeq+1 {
			r.add(&r.rep.SeqGaps, 1)
		}
		lastSeq, last = ev.Seq, ev
	}
	switch last.Kind {
	case "done":
		// Best-effort status fetch for the server-side compute sample.
		var computeMs float64
		if st, err := r.c.Status(context.Background(), id); err == nil {
			computeMs = st.ComputeMs
		}
		r.done(start, computeMs)
	case "failed":
		r.fail("", "workflow %s: %s", id, last.Error)
	default:
		// Stream cut before a terminal event: resolve by polling.
		r.add(&r.rep.TransportRetries, 1)
		r.pollDone(id, start)
	}
}
