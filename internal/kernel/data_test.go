package kernel

// In-package tests of the data-mode placement pass against a reference
// written the way the pass used to work: an input edge finds a sibling
// edge's probe of the same file by scanning the job's probe list, the
// winning resource is probed again at commit time, and every committed
// span re-coalesces its whole channel row — and, since the rows became
// timelines, every slot search is the span walk over uncoalesced compute
// rows (refEarliestStart). The production pass answers from per-file slots,
// the kept probe and timeline.add / earliest; it must place every job, time
// every transfer and leave every channel row exactly as the reference does.

import (
	"fmt"
	"slices"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// refPass is the reference data-mode pass over the base timelines the
// kernel's last prepHistory left. found counts how input edges resolved.
type refPass struct {
	k      *Kernel
	st     *State
	placed []schedule.Assignment
	tl, ch [][]block
	staged map[[2]int]float64 // (file, resource) → availability, this pass
	used   map[grid.ID]float64
	xfers  []schedule.Transfer
	found  struct{ local, prestaged, replica, pass, sibling, fresh int }
}

func (p *refPass) channelSlot(src, dst grid.ID, depart, d float64, insertion bool) float64 {
	if d <= 0 {
		return depart
	}
	t := depart
	for moved := true; moved; {
		moved = false
		for _, c := range p.k.dataM.AppendChannels(src, dst, nil) {
			if s := refEarliestStart(p.ch[c], t, d, insertion); s > t {
				t, moved = s, true
			}
		}
	}
	return t
}

func (p *refPass) probe(preds []dag.Edge, eBase int, r grid.ID, insertion, count bool) (ready float64, fits bool, xs []probeXfer) {
	k, st := p.k, p.st
	ready = st.Clock
	newBytes := 0.0
	note := func(n *int) {
		if count {
			*n++
		}
	}
	for i, e := range preds {
		f := k.fileOfEdge[eBase+i]
		if f < 0 {
			ready = max(ready, st.fea(e, eBase+i, r))
			continue
		}
		src, avail := st.finRes[e.From], st.finAFT[e.From]
		if src == grid.NoResource {
			src, avail = p.placed[e.From].Resource, p.placed[e.From].Finish
		}
		arr := avail
		if src == r {
			note(&p.found.local)
		} else if k.dataM.PreStaged(f, r) {
			note(&p.found.prestaged)
		} else if t, ok := st.fileAt(f, r); ok {
			note(&p.found.replica)
			arr = max(arr, t)
		} else if t, ok := p.staged[[2]int{f, int(r)}]; ok {
			note(&p.found.pass)
			arr = max(arr, t)
		} else if s := slices.IndexFunc(xs, func(x probeXfer) bool { return x.file == f }); s >= 0 {
			note(&p.found.sibling)
			arr = max(arr, xs[s].finish)
		} else {
			note(&p.found.fresh)
			d := k.dataM.Duration(f, src, r)
			t := p.channelSlot(src, r, max(avail, st.Clock), d, insertion)
			xs = append(xs, probeXfer{file: f, input: i, src: src, start: t, finish: t + d})
			newBytes += k.dataM.Size(f)
			arr = max(arr, t+d)
		}
		ready = max(ready, arr)
	}
	store := k.dataM.Store(r)
	return ready, store == 0 || p.used[r]+newBytes <= store+1e-9, xs
}

func (k *Kernel) refPlace(rs []grid.Resource, st *State, order []dag.JobID, insertion bool) *refPass {
	p := &refPass{
		k: k, st: st, placed: slices.Clone(k.basePlaced),
		tl: make([][]block, len(k.baseTL)), ch: make([][]block, len(k.chBase)),
		staged: map[[2]int]float64{}, used: map[grid.ID]float64{},
	}
	for _, r := range rs {
		// The walk reads the busy frontier off the span before its starting
		// point: a finish an earlier, longer span covers is raised to it.
		row := slices.Clone(k.baseTL[r.ID])
		for i := 1; i < len(row); i++ {
			row[i].finish = max(row[i].finish, row[i-1].finish)
		}
		p.tl[r.ID] = row
	}
	for c := range p.ch {
		p.ch[c] = coalesce(slices.Clone(k.chBase[c]))
	}
	for _, job := range order {
		best, over := grid.NoResource, grid.NoResource
		var bestS, bestF, overS, overF float64
		preds, eBase := k.g.Preds(job), k.predBase[job]
		for _, r := range rs {
			ready, fits, _ := p.probe(preds, eBase, r.ID, insertion, true)
			w := k.est.Comp(job, r.ID)
			start := refEarliestStart(p.tl[r.ID], ready, w, insertion)
			switch {
			case fits && (best == grid.NoResource || start+w < bestF):
				best, bestS, bestF = r.ID, start, start+w
			case !fits && best == grid.NoResource && (over == grid.NoResource || start+w < overF):
				over, overS, overF = r.ID, start, start+w
			}
		}
		if best == grid.NoResource {
			best, bestS, bestF = over, overS, overF
		}
		_, _, xs := p.probe(preds, eBase, best, insertion, false)
		for _, x := range xs {
			if x.finish > x.start {
				for _, c := range k.dataM.AppendChannels(x.src, best, nil) {
					insertBlock(&p.ch[c], block{x.start, x.finish})
					p.ch[c] = coalesce(p.ch[c])
				}
				p.xfers = append(p.xfers, schedule.Transfer{
					Job: job, Input: x.input, File: k.dataM.FileID(x.file), From: x.src, To: best, Start: x.start, Finish: x.finish,
				})
			}
			if t, ok := p.staged[[2]int{x.file, int(best)}]; !ok || x.finish < t {
				p.staged[[2]int{x.file, int(best)}] = x.finish
			}
			p.used[best] += k.dataM.Size(x.file)
		}
		p.placed[job] = schedule.Assignment{Job: job, Resource: best, Start: bestS, Finish: bestF}
		insertBlock(&p.tl[best], block{bestS, bestF})
	}
	return p
}

// DataPassMatchesReference compares what the kernel's last data-mode
// Reschedule over (rs, st) left — placements, transfers, channel rows of
// its one candidate pass (no tie window) — with the reference pass. It is
// exported, from this test file only, for the fuzz target in the external
// test package.
func (k *Kernel) DataPassMatchesReference(rs []grid.Resource, st *State, insertion bool) error {
	ref := k.refPlace(rs, st, k.base, insertion)
	for _, j := range k.base {
		if k.placed[j] != ref.placed[j] {
			return fmt.Errorf("job %d placed %+v, reference %+v", j, k.placed[j], ref.placed[j])
		}
	}
	if !slices.Equal(k.workXfers, ref.xfers) {
		return fmt.Errorf("transfers differ:\n got %+v\nwant %+v", k.workXfers, ref.xfers)
	}
	for c := range ref.ch {
		if !slices.Equal(k.chans[c].blocks, ref.ch[c]) {
			return fmt.Errorf("channel %s row differs:\n got %+v\nwant %+v", k.dataM.ChannelName(c), k.chans[c].blocks, ref.ch[c])
		}
	}
	return nil
}

// fanInScenario is a small graph in which one job, join, meets every way
// a file input can resolve: "shared" reaches it over three edges (from a,
// b and c — siblings of one probe), "db" is pre-staged on r0 and r1,
// "early" is also read by first, which a static pass places before join
// (a transfer committed earlier in the pass), and "old" comes from a job
// that a mid-run state has finished and shipped while first is still
// waiting (a replica from an earlier plan). r3's storage holds less than
// join's inputs, so a probe that does not fit is compared too.
func fanInScenario(t testing.TB) (*dag.Graph, cost.Estimator, *grid.Pool, *data.Model) {
	t.Helper()
	g := dag.New("fan-in")
	src := g.AddJob("src", "src")
	a, b, c := g.AddJob("a", "work"), g.AddJob("b", "work"), g.AddJob("c", "work")
	old := g.AddJob("old", "work")
	first := g.AddJob("first", "read")
	join := g.AddJob("join", "join")
	for _, j := range []dag.JobID{a, b, c, old} {
		g.MustFileEdge(src, j, 1, "db")
	}
	g.MustFileEdge(a, join, 1, "shared")
	g.MustFileEdge(b, join, 1, "shared")
	g.MustFileEdge(c, join, 1, "shared")
	g.MustFileEdge(old, join, 1, "old")
	g.MustFileEdge(src, first, 1, "early")
	g.MustEdge(old, first, 1) // first is still unplaced when old has finished
	g.MustFileEdge(src, join, 1, "early")
	g.MustEdge(first, join, 3)
	graph := g.MustValidate()
	rows := [][]float64{{2, 2, 2, 2}, {9, 8, 5, 4}, {9, 8, 4, 5}, {7, 9, 5, 5}, {3, 3, 3, 3}, {6, 6, 2, 2}, {5, 5, 4, 1}}
	pool := grid.MustPoolLinks([]grid.Arrival{
		{Resource: grid.Resource{ID: 0, Name: "a1", Link: "siteA"}},
		{Resource: grid.Resource{ID: 1, Name: "a2", Link: "siteA", Up: 3}},
		{Resource: grid.Resource{ID: 2, Name: "b1", Link: "siteB", Down: 5}},
		{Resource: grid.Resource{ID: 3, Name: "b2", Link: "siteB", Store: 20}},
	}, map[string]float64{"siteA": 4, "siteB": 2})
	files := &data.Set{Files: []data.File{
		{ID: "db", Size: 40, Hosts: []grid.ID{0, 1}}, {ID: "shared", Size: 12}, {ID: "old", Size: 9}, {ID: "early", Size: 6},
	}}
	m, err := data.NewModel(files, pool, graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	return graph, cost.Exact(cost.MustTable(rows)), pool, m
}

func TestDataPassMatchesScanningReference(t *testing.T) {
	type scenario struct {
		g    *dag.Graph
		est  cost.Estimator
		pool *grid.Pool
		m    *data.Model
	}
	fanIn := func(t *testing.T) scenario {
		g, est, pool, m := fanInScenario(t)
		return scenario{g, est, pool, m}
	}
	blast := func(searches int) func(t *testing.T) scenario {
		return func(t *testing.T) scenario {
			sc := workload.DataScenario(workload.DataParams{Searches: searches})
			m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
			if err != nil {
				t.Fatal(err)
			}
			return scenario{sc.Graph, sc.Estimator(), sc.Pool, m}
		}
	}
	var met struct{ local, prestaged, replica, pass, sibling, fresh int }
	for _, tc := range []struct {
		name        string
		build       func(t *testing.T) scenario
		clockFrac   float64 // replan at this fraction of the static makespan; 0 = static
		noInsertion bool
	}{
		{name: "fan-in/static", build: fanIn},
		{name: "fan-in/early", build: fanIn, clockFrac: 0.24},
		{name: "fan-in/mid-run", build: fanIn, clockFrac: 0.45},
		{name: "fan-in/early/no-insertion", build: fanIn, clockFrac: 0.24, noInsertion: true},
		{name: "blast6/static", build: blast(6)},
		{name: "blast6/mid-run", build: blast(6), clockFrac: 0.5},
		{name: "blast200/static", build: blast(200)},
		{name: "blast200/mid-run", build: blast(200), clockFrac: 0.6},
		{name: "blast200/late/no-insertion", build: blast(200), clockFrac: 0.9, noInsertion: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.build(t)
			k := New(sc.g, sc.est)
			k.SetData(sc.m)
			rs := sc.pool.Initial()
			opts := Options{NoInsertion: tc.noInsertion}
			var st *State
			if tc.clockFrac > 0 {
				s0, err := k.Static(rs, opts)
				if err != nil {
					t.Fatal(err)
				}
				st = k.NewState(sc.pool.Size())
				st.Snapshot(s0, tc.clockFrac*s0.Makespan(), SnapshotOptions{})
			}
			// Twice: the second pass runs on the scratch — probe epochs,
			// kept probe buffers — the first one left.
			for pass := 0; pass < 2; pass++ {
				if _, err := k.Reschedule(rs, st, opts); err != nil {
					t.Fatal(err)
				}
				if st == nil {
					st = k.empty
				}
				if err := k.DataPassMatchesReference(rs, st, !tc.noInsertion); err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				f := k.refPlace(rs, st, k.base, !tc.noInsertion).found
				met.local += f.local
				met.prestaged += f.prestaged
				met.replica += f.replica
				met.pass += f.pass
				met.sibling += f.sibling
				met.fresh += f.fresh
			}
		})
	}
	if met.local == 0 || met.prestaged == 0 || met.replica == 0 || met.pass == 0 || met.sibling == 0 || met.fresh == 0 {
		t.Fatalf("the table no longer meets every way an input resolves: %+v", met)
	}
}

// refRanks computes the upward ranks as Ranks did before the dense edge
// tables: each job pulls the largest communication weight + rank over its
// Succs, a file edge's weight found through the catalog's name map.
func (k *Kernel) refRanks(rs []grid.Resource) []float64 {
	topo, _ := k.g.TopoOrder()
	ranks := make([]float64, k.n)
	for i := len(topo) - 1; i >= 0; i-- {
		j, best := topo[i], 0.0
		for _, e := range k.g.Succs(j) {
			c := cost.MeanComm(e)
			if k.dataM != nil && e.File != "" {
				if f := k.dataM.Index(e.File); f >= 0 {
					c = k.dataM.NominalComm(f)
				}
			}
			best = max(best, c+ranks[e.To])
		}
		ranks[j] = cost.MeanComp(k.est, j, rs) + best
	}
	return ranks
}

// unsortedCopy rebuilds g unvalidated, its edges added in descending order,
// so every Preds list is unsorted and the kernel takes its predsSorted ==
// false branches.
func unsortedCopy(t testing.TB, g *dag.Graph) *dag.Graph {
	t.Helper()
	c := dag.New(g.Name())
	for _, j := range g.Jobs() {
		c.AddJob(j.Name, j.Op)
	}
	for j := g.Len() - 1; j >= 0; j-- {
		for _, e := range slices.Backward(g.Succs(dag.JobID(j))) {
			if err := c.AddFileEdge(e.From, e.To, e.Data, e.File); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestRanksMatchSuccessorWalk: the rank pass pushes each job's rank to its
// predecessors by dense edge index; the vector must equal, to the bit, the
// one the walk over Succs with per-edge file lookups gives — with and
// without a data model, on validated graphs and on one with unsorted Preds.
func TestRanksMatchSuccessorWalk(t *testing.T) {
	fg, fest, fpool, fm := fanInScenario(t)
	blast := workload.DataScenario(workload.DataParams{Searches: 48})
	bm, err := data.NewModel(blast.Files, blast.Pool, blast.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *dag.Graph
		est  cost.Estimator
		pool *grid.Pool
		m    *data.Model
	}{
		{"fan-in/data", fg, fest, fpool, fm},
		{"fan-in/classic", fg, fest, fpool, nil},
		{"fan-in/unsorted", unsortedCopy(t, fg), fest, fpool, fm},
		{"blast48/data", blast.Graph, blast.Estimator(), blast.Pool, bm},
		{"blast48/unsorted", unsortedCopy(t, blast.Graph), blast.Estimator(), blast.Pool, bm},
	} {
		k := New(tc.g, tc.est)
		k.SetData(tc.m)
		if tc.name[len(tc.name)-8:] == "unsorted" && k.predsSorted {
			t.Fatalf("%s: the copy's Preds are sorted", tc.name)
		}
		for _, rs := range [][]grid.Resource{tc.pool.Initial(), tc.pool.Initial()[:2]} {
			got, _, err := k.Ranks(rs)
			if err != nil {
				t.Fatal(err)
			}
			if want := k.refRanks(rs); !slices.Equal(got, want) {
				t.Fatalf("%s over %d resources:\n got %v\nwant %v", tc.name, len(rs), got, want)
			}
		}
	}
}
