package data

import (
	"math"
	"strings"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/grid"
)

// testPool builds the channel-shape fixture: r0 (uplink 10, link L),
// r1 (downlink 5, link L), r2 (link M only), r3 and r4 unconstrained.
func testPool(t *testing.T) *grid.Pool {
	t.Helper()
	return grid.MustPoolLinks([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0, Name: "r0", Up: 10, Link: "L"}},
		{Time: 0, Resource: grid.Resource{ID: 1, Name: "r1", Down: 5, Link: "L"}},
		{Time: 0, Resource: grid.Resource{ID: 2, Name: "r2", Link: "M"}},
		{Time: 0, Resource: grid.Resource{ID: 3, Name: "r3"}},
		{Time: 0, Resource: grid.Resource{ID: 4, Name: "r4"}},
	}, map[string]float64{"L": 4, "M": 8})
}

func TestValidateRejections(t *testing.T) {
	g := dag.New("t")
	a := g.AddJob("a", "op")
	b := g.AddJob("b", "op")
	g.MustFileEdge(a, b, 1, "known")
	graph := g.MustValidate()

	cases := []struct {
		name string
		set  Set
		g    *dag.Graph
		pool int
		max  int
		want string
	}{
		{"empty ID", Set{Files: []File{{ID: "", Size: 1}}}, nil, 0, 0, "empty ID"},
		{"long ID", Set{Files: []File{{ID: strings.Repeat("x", MaxIDLen+1), Size: 1}}}, nil, 0, 0, "longer"},
		{"duplicate ID", Set{Files: []File{{ID: "f", Size: 1}, {ID: "f", Size: 2}}}, nil, 0, 0, "duplicate"},
		{"zero size", Set{Files: []File{{ID: "f", Size: 0}}}, nil, 0, 0, "invalid size"},
		{"negative size", Set{Files: []File{{ID: "f", Size: -3}}}, nil, 0, 0, "invalid size"},
		{"inf size", Set{Files: []File{{ID: "f", Size: math.Inf(1)}}}, nil, 0, 0, "invalid size"},
		{"nan size", Set{Files: []File{{ID: "f", Size: math.NaN()}}}, nil, 0, 0, "invalid size"},
		{"negative host", Set{Files: []File{{ID: "f", Size: 1, Hosts: []grid.ID{-1}}}}, nil, 0, 0, "unknown resource"},
		{"host out of range", Set{Files: []File{{ID: "f", Size: 1, Hosts: []grid.ID{2}}}}, nil, 2, 0, "unknown resource"},
		{"duplicate host", Set{Files: []File{{ID: "f", Size: 1, Hosts: []grid.ID{0, 0}}}}, nil, 2, 0, "twice"},
		{"over limit", Set{Files: []File{{ID: "f", Size: 1}, {ID: "g", Size: 1}}}, nil, 0, 1, "exceed limit"},
		{"negative default bw", Set{DefaultBW: -1, Files: []File{{ID: "f", Size: 1}}}, nil, 0, 0, "invalid default bandwidth"},
		{"nan default bw", Set{DefaultBW: math.NaN(), Files: []File{{ID: "f", Size: 1}}}, nil, 0, 0, "invalid default bandwidth"},
		{"undeclared edge file", Set{Files: []File{{ID: "other", Size: 1}}}, graph, 0, 0, "undeclared file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.set.Validate(tc.g, tc.pool, tc.max)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}

	// The happy path: declared file referenced by the edge, hosts in range,
	// out-of-range host check skipped at poolSize 0.
	ok := Set{Files: []File{{ID: "known", Size: 2, Hosts: []grid.ID{99}}}}
	if err := ok.Validate(graph, 0, 0); err != nil {
		t.Fatalf("valid catalog rejected: %v", err)
	}
}

func TestModelChannels(t *testing.T) {
	pool := testPool(t)
	m, err := NewModel(&Set{Files: []File{{ID: "f", Size: 8, Hosts: []grid.ID{1}}}}, pool, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Channel layout: links first in name order, then per-arrival declared
	// uplinks and downlinks — stable names the ledger and GridStatus key on.
	wantNames := []string{"link:L", "link:M", "up:0", "down:1"}
	wantBW := []float64{4, 8, 10, 5}
	if m.NumChannels() != len(wantNames) {
		t.Fatalf("NumChannels = %d, want %d", m.NumChannels(), len(wantNames))
	}
	for c, want := range wantNames {
		if m.ChannelName(c) != want || m.ChannelBW(c) != wantBW[c] {
			t.Fatalf("channel %d = %s@%g, want %s@%g", c, m.ChannelName(c), m.ChannelBW(c), want, wantBW[c])
		}
	}

	chNames := func(src, dst grid.ID) []string {
		idx := m.AppendChannels(src, dst, nil)
		out := make([]string, len(idx))
		for i, c := range idx {
			out[i] = m.ChannelName(c)
		}
		return out
	}
	cases := []struct {
		src, dst grid.ID
		want     []string
	}{
		{0, 0, nil}, // co-located: no channels
		{0, 1, []string{"up:0", "down:1", "link:L"}}, // shared link counted once
		{0, 2, []string{"up:0", "link:L", "link:M"}}, // distinct links both counted
		{3, 0, []string{"link:L"}},                   // entering site L crosses its link
		{3, 1, []string{"down:1", "link:L"}},
		{0, 3, []string{"up:0", "link:L"}},
		{3, 4, nil}, // fully unmodelled path
	}
	for _, tc := range cases {
		got := chNames(tc.src, tc.dst)
		if len(got) != len(tc.want) {
			t.Fatalf("AppendChannels(%d,%d) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("AppendChannels(%d,%d) = %v, want %v", tc.src, tc.dst, got, tc.want)
			}
		}
	}
}

func TestEffBWAndCosts(t *testing.T) {
	pool := testPool(t)
	set := &Set{Files: []File{{ID: "f", Size: 8, Hosts: []grid.ID{1}}}}
	m, err := NewModel(set, pool, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// EffBW is the min over every declared constraint on the path.
	if bw := m.EffBW(0, 1); bw != 4 { // min(up 10, down 5, link L 4)
		t.Fatalf("EffBW(0,1) = %g, want 4", bw)
	}
	if bw := m.EffBW(0, 2); bw != 4 { // min(up 10, L 4, M 8)
		t.Fatalf("EffBW(0,2) = %g, want 4", bw)
	}
	if bw := m.EffBW(2, 3); bw != 8 { // only link M constrains
		t.Fatalf("EffBW(2,3) = %g, want 8", bw)
	}
	// Unmodelled path: +Inf bandwidth, zero duration.
	if bw := m.EffBW(3, 4); !math.IsInf(bw, 1) {
		t.Fatalf("EffBW(3,4) = %g, want +Inf", bw)
	}
	if d := m.Duration(0, 3, 4); d != 0 {
		t.Fatalf("Duration over unmodelled path = %g, want 0", d)
	}
	if d := m.Duration(0, 0, 0); d != 0 {
		t.Fatalf("co-located Duration = %g, want 0", d)
	}
	if d := m.Duration(0, 0, 2); d != 2 { // 8 / min(10, 4, 8)
		t.Fatalf("Duration(f, 0, 2) = %g, want 2", d)
	}

	// StaticComm zeroes pre-staged destinations; NominalComm averages the
	// declared channel capacities when no default is set.
	if c := m.StaticComm(0, 0, 1); c != 0 {
		t.Fatalf("StaticComm to pre-staged host = %g, want 0", c)
	}
	if c := m.StaticComm(0, 2, 2); c != 0 {
		t.Fatalf("co-located StaticComm = %g, want 0", c)
	}
	if c := m.StaticComm(0, 0, 2); c != 2 {
		t.Fatalf("StaticComm(f, 0, 2) = %g, want 2", c)
	}
	if c := m.NominalComm(0); c != 8/6.75 { // mean(4, 8, 10, 5) = 6.75
		t.Fatalf("NominalComm = %g, want %g", c, 8/6.75)
	}

	// DefaultBW becomes both the unconstrained baseline and the nominal
	// reference.
	m2, err := NewModel(&Set{DefaultBW: 2, Files: set.Files}, pool, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bw := m2.EffBW(3, 4); bw != 2 {
		t.Fatalf("EffBW with DefaultBW = %g, want 2", bw)
	}
	if c := m2.NominalComm(0); c != 4 {
		t.Fatalf("NominalComm with DefaultBW = %g, want 4", c)
	}

	// A pool with no declared capacity at all falls back to reference
	// bandwidth 1.
	bare := grid.MustPool([]grid.Arrival{
		{Time: 0, Resource: grid.Resource{ID: 0, Name: "a"}},
		{Time: 0, Resource: grid.Resource{ID: 1, Name: "b"}},
	})
	m3, err := NewModel(&Set{Files: set.Files}, bare, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := m3.NominalComm(0); c != 8 {
		t.Fatalf("NominalComm on bare pool = %g, want 8", c)
	}

	// PreStaged and Store tolerate out-of-range resources.
	if m.PreStaged(0, grid.ID(99)) || m.Store(grid.ID(99)) != 0 {
		t.Fatal("out-of-range resource not treated as absent")
	}
}
