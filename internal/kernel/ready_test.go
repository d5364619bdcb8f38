package kernel

// In-package tests of the classic pass's input-ready times: the per-job
// split (gatherInputs, inputReady) against the loop it replaced, one
// State.fea per (predecessor, resource).

import (
	"math"
	"slices"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/rng"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// refReady is the inner max of Eq. 2 as placeCandidate computed it before
// the split: the latest State.fea over every input of the job on r.
func (k *Kernel) refReady(st *State, preds []dag.Edge, eBase int, r grid.ID) float64 {
	ready := st.Clock
	for i := range preds {
		if t := st.fea(preds[i], eBase+i, r); t > ready {
			ready = t
		}
	}
	return ready
}

// TestInputReadyMatchesFEA: on each way the arrival walk can stop early or
// must not, the split gives every resource the reference's float.
func TestInputReadyMatchesFEA(t *testing.T) {
	const nRes = 4
	type input struct {
		data     float64
		res      grid.ID
		finish   float64
		pinned   bool
		finished bool
		ledger   map[grid.ID]float64 // a finished input's recorded transfers
	}
	// A fan-in of 40 over three resources, every hi tied with others and
	// a third of the edges zero-weight, sorted for the walk as one batch.
	var fanIn []input
	for i := 0; i < 40; i++ {
		fanIn = append(fanIn, input{data: float64(i % 3), res: grid.ID(i % 3), finish: float64(20 - i%7)})
	}
	for _, tc := range []struct {
		name   string
		clock  float64
		inputs []input
	}{
		{"wide fan-in with ties", 0, fanIn},
		{"two inputs tie on hi on different resources", 0, []input{
			{data: 5, res: 0, finish: 10}, {data: 3, res: 1, finish: 12}, {data: 1, res: 2, finish: 4},
		}},
		{"zero-weight edge", 0, []input{
			{data: 0, res: 0, finish: 9}, {data: 2, res: 1, finish: 6}, {data: 0, res: 3, finish: 9},
		}},
		{"every input on the candidate", 0, []input{
			{data: 4, res: 1, finish: 3}, {data: 6, res: 1, finish: 5}, {data: 9, res: 1, finish: 1},
		}},
		{"pinned input", 2, []input{
			{data: 3, res: 2, finish: 7, pinned: true}, {data: 1, res: 0, finish: 8},
		}},
		{"finished input still in flight past clock + data", 10, []input{
			{data: 2, res: 0, finish: 6, finished: true, ledger: map[grid.ID]float64{0: 6, 1: 19}},
			{data: 1, res: 2, finish: 11}, {data: 4, res: 1, finish: 13},
		}},
		{"inputs all arrive before the clock", 50, []input{
			{data: 2, res: 0, finish: 6, finished: true, ledger: map[grid.ID]float64{0: 6}},
			{data: 3, res: 1, finish: 40, pinned: true},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := dag.New("join")
			for i := range tc.inputs {
				g.AddJob(string(rune('a'+i)), "")
			}
			job := g.AddJob("join", "")
			for i, in := range tc.inputs {
				g.MustEdge(dag.JobID(i), job, in.data)
			}
			comp := make([][]float64, g.Len())
			for j := range comp {
				comp[j] = slices.Repeat([]float64{1}, nRes)
			}
			k := New(g.MustValidate(), cost.Exact(cost.MustTable(comp)))
			st := k.NewState(nRes)
			st.Clock = tc.clock
			for i, in := range tc.inputs {
				m := dag.JobID(i)
				a := schedule.Assignment{Job: m, Resource: in.res, Start: in.finish - 1, Finish: in.finish}
				switch {
				case in.finished:
					st.Finish(m, in.res, a.Start, a.Finish)
					for r, at := range in.ledger {
						st.SetTransfer(m, job, r, at)
					}
				case in.pinned:
					st.Pin(a)
					k.placed[m] = a
				default:
					k.placed[m] = a
				}
			}
			preds, eBase := k.g.Preds(job), k.g.PredBase(job)
			k.gatherInputs(st, preds)
			for r := grid.ID(0); r < nRes; r++ {
				got, want := k.inputReady(st, preds, eBase, r), k.refReady(st, preds, eBase, r)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("r%d: ready %v, reference %v", r, got, want)
				}
			}
		})
	}
}

// readyScenario is the kernel and state BenchmarkKernelReady times: the
// 60-job random workflow of the server benches (serverBenchBodies in the
// root package), 8 resources growing to 16, planned as the analytic run
// plans it up to its second pool change and replanned there, so every
// unfinished job's inputs are placed, pinned or finished.
func readyScenario(b *testing.B) (*Kernel, *State, []grid.Resource) {
	sc, err := workload.RandomScenario(workload.RandomParams{
		Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5,
	}, workload.GridParams{
		InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4,
	}, rng.New(0xD0E))
	if err != nil {
		b.Fatal(err)
	}
	k := New(sc.Graph, sc.Estimator())
	s, err := k.Static(sc.Pool.Initial(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := k.NewState(sc.Pool.Size())
	var rs []grid.Resource
	for _, clock := range sc.Pool.ChangeTimes()[:2] {
		rs = sc.Pool.AvailableAt(clock)
		st.Snapshot(s, clock, SnapshotOptions{})
		s1, err := k.Reschedule(rs, st, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s1.Makespan() < s.Makespan() {
			s = s1
		}
	}
	return k, st, rs
}

// BenchmarkKernelReady times the classic pass's input-ready times, every
// unfinished job on every resource of readyScenario: from the per-job
// split, and under oracle/ from one State.fea per (predecessor,
// resource), the loop the split replaced. Both give the same floats,
// checked once before timing. CI gates the ratio.
func BenchmarkKernelReady(b *testing.B) {
	k, st, rs := readyScenario(b)
	split := func(out []float64) []float64 {
		for _, job := range k.base {
			preds, eBase := k.g.Preds(job), k.g.PredBase(job)
			k.gatherInputs(st, preds)
			for _, r := range rs {
				out = append(out, k.inputReady(st, preds, eBase, r.ID))
			}
		}
		return out
	}
	oracle := func(out []float64) []float64 {
		for _, job := range k.base {
			preds, eBase := k.g.Preds(job), k.g.PredBase(job)
			for _, r := range rs {
				out = append(out, k.refReady(st, preds, eBase, r.ID))
			}
		}
		return out
	}
	if got, want := split(nil), oracle(nil); !slices.Equal(got, want) || len(got) != len(k.base)*len(rs) {
		b.Fatalf("split and oracle disagree:\n got %v\nwant %v", got, want)
	}
	for _, bc := range []struct {
		name  string
		ready func([]float64) []float64
	}{{"submit60", split}, {"oracle/submit60", oracle}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]float64, 0, len(k.base)*len(rs))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				buf = bc.ready(buf[:0])
			}
		})
	}
}
