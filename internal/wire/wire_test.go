package wire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aheft/internal/data"
	"aheft/internal/grid"
	"aheft/internal/rng"
	"aheft/internal/workload"
)

// sampleSubmission wraps the paper's Fig. 4 scenario in an envelope.
func sampleSubmission() *Submission {
	sc := workload.SampleScenario()
	return &Submission{
		Name:    "fig4",
		Policy:  "aheft",
		Options: Options{TieWindow: 0.05, Eps: 1e-6, Class: ClassHigh, Weight: 2},
		Graph:   sc.Graph,
		Comp:    sc.Table,
		Pool:    sc.Pool,
	}
}

func TestSubmissionRoundTrip(t *testing.T) {
	s := sampleSubmission()
	data, err := EncodeSubmission(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubmission(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.V != Version || got.Name != "fig4" || got.Policy != "aheft" {
		t.Fatalf("envelope fields lost: %+v", got)
	}
	if got.Options != s.Options {
		t.Fatalf("options lost: got %+v want %+v", got.Options, s.Options)
	}
	if got.Graph.Len() != s.Graph.Len() || got.Graph.NumEdges() != s.Graph.NumEdges() {
		t.Fatalf("graph shape lost: %d jobs / %d edges", got.Graph.Len(), got.Graph.NumEdges())
	}
	if got.Pool.Size() != s.Pool.Size() || got.Comp.Jobs() != s.Comp.Jobs() || got.Comp.Resources() != s.Comp.Resources() {
		t.Fatalf("pool/table shape lost")
	}
	// Spot-check a cost and an arrival survived exactly.
	if got.Comp.Comp(9, 1) != s.Comp.Comp(9, 1) {
		t.Fatalf("cost w[9][1] changed: %g != %g", got.Comp.Comp(9, 1), s.Comp.Comp(9, 1))
	}
	if got.Pool.ArrivalTime(3) != 15 {
		t.Fatalf("r4 arrival time lost: %g", got.Pool.ArrivalTime(3))
	}
	// A second encode must be byte-identical (the codecs are canonical).
	again, err := EncodeSubmission(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding not canonical:\n%s\nvs\n%s", data, again)
	}
}

func TestGeneratedScenariosRoundTrip(t *testing.T) {
	r := rng.New(7)
	sc, err := workload.RandomScenario(
		workload.RandomParams{Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5},
		workload.GridParams{InitialResources: 6, ChangeInterval: 200, ChangePct: 0.25, MaxEvents: 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSubmission(&Submission{Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSubmission(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.Len() != sc.Graph.Len() || got.Pool.Size() != sc.Pool.Size() {
		t.Fatalf("shape lost: %d/%d jobs, %d/%d resources",
			got.Graph.Len(), sc.Graph.Len(), got.Pool.Size(), sc.Pool.Size())
	}
}

func TestDecodeRejects(t *testing.T) {
	valid, err := EncodeSubmission(sampleSubmission())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		name string
		data []byte
		lim  Limits
		want string
	}{
		{"garbage", []byte("{"), Limits{}, "decode"},
		{"future envelope version", mutate(func(m map[string]any) { m["v"] = Version + 1 }), Limits{}, "unsupported envelope version"},
		{"future graph version", mutate(func(m map[string]any) { m["graph"].(map[string]any)["v"] = 99 }), Limits{}, "unsupported wire version"},
		{"no graph", mutate(func(m map[string]any) { delete(m, "graph") }), Limits{}, "no graph"},
		{"no table", mutate(func(m map[string]any) { delete(m, "comp") }), Limits{}, "no estimator table"},
		{"no pool", mutate(func(m map[string]any) { delete(m, "pool") }), Limits{}, "no resource pool"},
		{"ragged table", mutate(func(m map[string]any) {
			comp := m["comp"].([]any)
			comp[0] = comp[0].([]any)[:2]
		}), Limits{}, "ragged"},
		{"non-positive cost", mutate(func(m map[string]any) {
			m["comp"].([]any)[0].([]any)[0] = -1.0
		}), Limits{}, "invalid cost"},
		{"table wrong width", mutate(func(m map[string]any) {
			comp := m["comp"].([]any)
			for i := range comp {
				comp[i] = comp[i].([]any)[:3]
			}
		}), Limits{}, "pool has"},
		{"table wrong height", mutate(func(m map[string]any) {
			m["comp"] = m["comp"].([]any)[:9]
		}), Limits{}, "graph has"},
		{"pool without time-0", mutate(func(m map[string]any) {
			for _, a := range m["pool"].([]any) {
				a.(map[string]any)["t"] = 5.0
			}
		}), Limits{}, "no resource available at time 0"},
		{"negative arrival", mutate(func(m map[string]any) {
			m["pool"].([]any)[0].(map[string]any)["t"] = -1.0
		}), Limits{}, "invalid arrival time"},
		{"cycle", mutate(func(m map[string]any) {
			edges := m["graph"].(map[string]any)["edges"].([]any)
			m["graph"].(map[string]any)["edges"] = append(edges,
				map[string]any{"from": "n10", "to": "n1", "data": 1.0})
		}), Limits{}, "cycle"},
		{"negative edge data", mutate(func(m map[string]any) {
			m["graph"].(map[string]any)["edges"].([]any)[0].(map[string]any)["data"] = -3.0
		}), Limits{}, "negative data"},
		{"duplicate job", mutate(func(m map[string]any) {
			jobs := m["graph"].(map[string]any)["jobs"].([]any)
			jobs[1].(map[string]any)["name"] = "n1"
		}), Limits{}, "duplicate job"},
		{"too many jobs", valid, Limits{MaxJobs: 5}, "exceeds limit"},
		{"too many resources", valid, Limits{MaxResources: 2}, "exceeds limit"},
		{"oversized name", mutate(func(m map[string]any) { m["name"] = strings.Repeat("n", MaxNameLen+1) }), Limits{}, "workflow name exceeds"},
		{"control character in name", mutate(func(m map[string]any) { m["name"] = "fig4\x1b[2J" }), Limits{}, "workflow name contains control character"},
		{"oversized tenant", mutate(func(m map[string]any) { m["tenant"] = strings.Repeat("t", MaxTenantLen+1) }), Limits{}, "tenant label exceeds"},
		{"bad tie window", mutate(func(m map[string]any) {
			m["options"] = map[string]any{"tie_window": -0.5}
		}), Limits{}, "invalid tie_window"},
		{"unknown admission class", mutate(func(m map[string]any) {
			m["options"] = map[string]any{"class": "urgent"}
		}), Limits{}, "unknown admission class"},
		{"negative weight", mutate(func(m map[string]any) {
			m["options"] = map[string]any{"weight": -1.0}
		}), Limits{}, "invalid weight"},
		{"oversized weight", mutate(func(m map[string]any) {
			m["options"] = map[string]any{"weight": float64(MaxWeight + 1)}
		}), Limits{}, "invalid weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSubmission(tc.data, tc.lim)
			if err == nil {
				t.Fatalf("decode accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// dataSubmission is a v2 submission with a file catalog, file-carrying
// edges, and a pool declaring link/storage capacities.
func dataSubmission(t testing.TB) *Submission {
	t.Helper()
	sc := workload.DataScenario(workload.DataParams{})
	return &Submission{
		Name:  "data",
		Mode:  ModeLive,
		Graph: sc.Graph,
		Comp:  sc.Table,
		Files: sc.Files,
		Pool:  sc.Pool,
	}
}

func TestDataSubmissionRoundTrip(t *testing.T) {
	s := dataSubmission(t)
	enc, err := EncodeSubmission(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc, []byte(`"files":`)) || !bytes.Contains(enc, []byte(`"links":`)) {
		t.Fatalf("catalog or links not encoded:\n%s", enc)
	}
	got, err := DecodeSubmission(enc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Files == nil || len(got.Files.Files) != len(s.Files.Files) {
		t.Fatalf("file catalog lost: %+v", got.Files)
	}
	if got.Pool.LinkBW("wan") != s.Pool.LinkBW("wan") {
		t.Fatalf("link bandwidth lost: %g != %g", got.Pool.LinkBW("wan"), s.Pool.LinkBW("wan"))
	}
	fileEdges := 0
	for _, j := range got.Graph.Jobs() {
		for _, e := range got.Graph.Preds(j.ID) {
			if e.File != "" {
				fileEdges++
			}
		}
	}
	if fileEdges == 0 {
		t.Fatal("edge file references lost in round trip")
	}
	again, err := EncodeSubmission(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, again) {
		t.Fatalf("re-encoding not canonical:\n%s\nvs\n%s", enc, again)
	}
}

// TestLegacyV1Parity pins byte compatibility with the v1 wire format: the
// committed v1 document still decodes, and its canonical re-encode —
// identical except for the version stamp — matches the committed golden
// byte for byte. Any drift in field order, omission rules, or the
// embedded codecs breaks this test before it breaks a client.
func TestLegacyV1Parity(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy_v1_reencoded.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSubmission(legacy, Limits{})
	if err != nil {
		t.Fatalf("legacy v1 document rejected: %v", err)
	}
	if s.V != 1 || s.Files != nil {
		t.Fatalf("legacy decode drifted: v=%d files=%v", s.V, s.Files)
	}
	enc, err := EncodeSubmission(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, golden) {
		t.Fatalf("legacy re-encode drifted from golden:\n%s\nvs\n%s", enc, golden)
	}
}

func TestDataSubmissionRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Submission)
		want   string
	}{
		{"undeclared file ref", func(s *Submission) {
			s.Files = &data.Set{Files: []data.File{{ID: "other", Size: 1}}}
		}, "undeclared file"},
		{"file edge without catalog", func(s *Submission) { s.Files = nil }, "no file catalog"},
		{"negative size", func(s *Submission) {
			s.Files.Files[0].Size = -1
		}, "invalid size"},
		{"duplicate file", func(s *Submission) {
			s.Files.Files = append(s.Files.Files, s.Files.Files[0])
		}, "duplicate file"},
		{"host out of range", func(s *Submission) {
			s.Files.Files[0].Hosts = []grid.ID{grid.ID(s.Pool.Size())}
		}, "unknown resource"},
		{"oversized file ID", func(s *Submission) {
			s.Files.Files[0].ID = strings.Repeat("x", data.MaxIDLen+1)
		}, "longer than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := dataSubmission(t)
			tc.mutate(s)
			err := s.Validate(Limits{})
			if err == nil {
				t.Fatal("validate accepted the mutation")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The file-count limit is enforced.
	s := dataSubmission(t)
	if err := s.Validate(Limits{MaxFiles: 1}); err == nil || !strings.Contains(err.Error(), "exceed limit") {
		t.Fatalf("over-limit catalog accepted: %v", err)
	}
}

// sharedSubmission is a live submission attaching to a shared grid.
func sharedSubmission() *Submission {
	sc := workload.SampleScenario()
	return &Submission{
		Name:       "fig4-shared",
		Mode:       ModeLive,
		Tenant:     "blast",
		Policy:     "aheft",
		Graph:      sc.Graph,
		Comp:       sc.Table,
		SharedGrid: "cluster-a",
	}
}

func TestSharedGridSubmissionRoundTrip(t *testing.T) {
	data, err := EncodeSubmission(sharedSubmission())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"pool":"shared:cluster-a"`)) {
		t.Fatalf("pool reference not encoded as a string:\n%s", data)
	}
	got, err := DecodeSubmission(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.SharedGrid != "cluster-a" || got.Pool != nil {
		t.Fatalf("reference lost: shared=%q pool=%v", got.SharedGrid, got.Pool)
	}
	again, err := EncodeSubmission(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoding not canonical:\n%s\nvs\n%s", data, again)
	}
}

func TestSharedGridSubmissionRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Submission)
		want   string
	}{
		{"analytic mode", func(s *Submission) { s.Mode = "" }, "requires mode"},
		{"explicit analytic", func(s *Submission) { s.Mode = ModeAnalytic }, "requires mode"},
		{"both pool and grid", func(s *Submission) { s.Pool = workload.SampleScenario().Pool }, "both pool and shared grid"},
		{"name with slash", func(s *Submission) { s.SharedGrid = "a/b" }, "invalid shared-grid name"},
		{"name with space", func(s *Submission) { s.SharedGrid = "a b" }, "invalid shared-grid name"},
		{"oversized name", func(s *Submission) { s.SharedGrid = strings.Repeat("x", MaxGridNameLen+1) }, "invalid shared-grid name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sharedSubmission()
			tc.mutate(s)
			if err := s.Validate(Limits{}); err == nil {
				t.Fatal("validate accepted the mutation")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A bare pool string without the prefix is rejected at decode.
	valid, err := EncodeSubmission(sharedSubmission())
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(valid, []byte(`"shared:cluster-a"`), []byte(`"cluster-a"`), 1)
	if _, err := DecodeSubmission(bad, Limits{}); err == nil || !strings.Contains(err.Error(), "must start with") {
		t.Fatalf("bare pool string accepted: %v", err)
	}
}

func TestGridSpecRoundTrip(t *testing.T) {
	sc := workload.SampleScenario()
	data, err := EncodeGridSpec(&GridSpec{Pool: sc.Pool})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGridSpec(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Pool.Size() != sc.Pool.Size() {
		t.Fatalf("pool shape lost: %d != %d", got.Pool.Size(), sc.Pool.Size())
	}
	if _, err := DecodeGridSpec([]byte(`{"v":1}`), Limits{}); err == nil {
		t.Fatal("empty grid spec accepted")
	}
	if _, err := DecodeGridSpec(data, Limits{MaxResources: 2}); err == nil {
		t.Fatal("oversized grid accepted")
	}
}

// FuzzSerializeRoundTrip holds the decoder to two properties on arbitrary
// input: it never panics, and any document it accepts re-encodes
// canonically (encode(decode(d)) decodes to the same bytes again). This
// is the daemon's ingestion guard — submissions come straight off the
// network.
func FuzzSerializeRoundTrip(f *testing.F) {
	if seed, err := EncodeSubmission(sampleSubmission()); err == nil {
		f.Add(seed)
	}
	r := rng.New(3)
	if sc, err := workload.BlastScenario(workload.AppParams{Parallelism: 5, CCR: 1, Beta: 0.5},
		workload.GridParams{InitialResources: 4, ChangeInterval: 100, ChangePct: 0.25, MaxEvents: 2}, r); err == nil {
		if seed, err := EncodeSubmission(&Submission{Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool}); err == nil {
			f.Add(seed)
		}
	}
	if seed, err := EncodeSubmission(sharedSubmission()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"v":1,"graph":{"name":"g","jobs":[{"name":"a"}],"edges":[]},"comp":[[1]],"pool":[{"t":0,"name":"r"}]}`))
	f.Add([]byte(`{"v":1,"mode":"live","graph":{"name":"g","jobs":[{"name":"a"}],"edges":[]},"comp":[[1]],"pool":"shared:g1"}`))
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSubmission(data, Limits{MaxJobs: 2000, MaxResources: 200})
		if err != nil {
			return // rejected is fine; panicking is not
		}
		enc, err := EncodeSubmission(s)
		if err != nil {
			t.Fatalf("accepted submission failed to re-encode: %v", err)
		}
		s2, err := DecodeSubmission(enc, Limits{MaxJobs: 2000, MaxResources: 200})
		if err != nil {
			t.Fatalf("re-encoded submission rejected: %v", err)
		}
		enc2, err := EncodeSubmission(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not canonical:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
