package kernel

import (
	"slices"
	"testing"
	"time"

	"aheft/internal/data"
	"aheft/internal/workload"
)

// TestDataPassIsLinearInFanIn replans an 8192-search scenario — one merge
// job with 8192 file inputs — late in the run, when placing that job is
// most of what is left. Scanning the job's probe list per input edge made
// its placement quadratic (≈ 80 ms of an 84 ms replan, against 2.3 ms
// now): the reference pass, which still scans, is timed beside the
// kernel's and must lose by more than 10×, so a scan creeping back in
// fails here long before it shows in a profile. (A ratio, not a
// wall-clock figure: both sides slow down together under -race or on a
// busy box. Earlier in the run the searches' own placement — the compute
// rows' gap walk, the same in classic mode — hides the difference.)
func TestDataPassIsLinearInFanIn(t *testing.T) {
	if testing.Short() {
		t.Skip("times an 8194-job replan")
	}
	sc := workload.DataScenario(workload.DataParams{Searches: 8192})
	m, err := data.NewModel(sc.Files, sc.Pool, sc.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := New(sc.Graph, sc.Estimator())
	k.SetData(m)
	rs := sc.Pool.Initial()
	s0, err := k.Static(rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := k.NewState(sc.Pool.Size())
	st.Snapshot(s0, 0.9*s0.Makespan(), SnapshotOptions{})
	fastest := func(f func()) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			began := time.Now()
			f()
			best = min(best, time.Since(began))
		}
		return best
	}
	pass := fastest(func() {
		if _, err := k.Reschedule(rs, st, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	var ref *refPass
	scan := fastest(func() { ref = k.refPlace(rs, st, k.base, true) })
	if !slices.Equal(k.workXfers, ref.xfers) {
		t.Fatal("the two passes disagree on the transfers")
	}
	t.Logf("replan %v, scanning reference %v (%.0f×)", pass, scan, float64(scan)/float64(pass))
	if scan < 10*pass {
		t.Errorf("replan took %v, the quadratic reference %v: less than 10× apart", pass, scan)
	}
}
