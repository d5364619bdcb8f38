package drive_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"aheft/internal/drive"
	"aheft/internal/rng"
	"aheft/internal/server"
	"aheft/internal/wire"
	"aheft/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/parity.golden.json from this build's behaviour")

// The parity golden pins what the daemon's tests, benches and CI gates
// silently rest on: for a fixed (Config, tenants, seed) the harness sends
// one exact request sequence and measures one exact outcome. It was
// recorded at the commit before Run/RunShared were folded into one Run;
// -update exists for deliberate wire or kernel changes, never to paper
// over a harness diff.

// goldenRow is one tenant's outcome in a shape that does not depend on
// drive's struct layout.
type goldenRow struct {
	ID          string         `json:"id"`
	Name        string         `json:"name"`
	Jobs        int            `json:"jobs"`
	Adaptive    float64        `json:"adaptive"`
	Baseline    float64        `json:"baseline"`
	Daemon      float64        `json:"daemon"`
	Initial     float64        `json:"initial"`
	Reports     int            `json:"reports"`
	Events      int            `json:"events"`
	Generation  int            `json:"generation"`
	Reschedules int            `json:"reschedules"`
	ByTrigger   map[string]int `json:"by_trigger"`
}

type goldenRun struct {
	// Requests is one line per request the harness sent, in order:
	// method, path, and the FNV-1a digest of (method, path, body). Plan
	// polls answered 409 are timing, not behaviour, and are left out.
	Requests []string    `json:"requests"`
	Rows     []goldenRow `json:"rows"`
	// Decisions is the private-pool run's evaluation count (the harness
	// the golden was recorded from did not count them on shared grids).
	Decisions                 int `json:"decisions,omitempty"`
	FinalReservations         int `json:"final_reservations"`
	FinalTransferReservations int `json:"final_transfer_reservations"`
	PlannedTransferClaims     int `json:"planned_transfer_claims"`
}

// tap records every request a fresh single-shard daemon serves, in
// arrival order.
type tap struct {
	h        http.Handler
	mu       sync.Mutex
	requests []string
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP logs the request before serving it: the harness is one
// sequential client, but its next request can arrive on a second
// connection while this handler is still returning.
func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %s\n", r.Method, r.URL.Path)
	h.Write(body)
	t.mu.Lock()
	at := len(t.requests)
	t.requests = append(t.requests, fmt.Sprintf("%s %s %016x", r.Method, r.URL.Path, h.Sum64()))
	t.mu.Unlock()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t.h.ServeHTTP(sw, r)
	if r.Method == http.MethodGet && sw.code == http.StatusConflict {
		t.mu.Lock()
		t.requests[at] = "" // a plan poll answered 409: timing, not behaviour
		t.mu.Unlock()
	}
}

// tapped runs fn against a fresh daemon and returns the requests it saw
// and the transfer claims pending on the named grid at first reports.
func tapped(t *testing.T, grid string, fn func(base string, client *http.Client)) ([]string, int) {
	t.Helper()
	srv := server.New(server.Config{Shards: 1})
	claims := &pendingClaims{h: srv.Handler(), grid: grid}
	tp := &tap{h: claims}
	ts := httptest.NewServer(tp)
	defer func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	}()
	fn(ts.URL, ts.Client())
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return slices.DeleteFunc(tp.requests, func(line string) bool { return line == "" }), claims.total
}

func TestParityGolden(t *testing.T) {
	got := map[string]goldenRun{}

	// BLAST-24 seed 7 on a private pool: the blast24Life / recordBlastLife
	// shape the patch-chain tests and durability benches replay.
	t.Run("private", func(t *testing.T) {
		sc, err := workload.BlastScenario(
			workload.AppParams{Parallelism: 24, CCR: 1, Beta: 0.5},
			workload.GridParams{InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4},
			rng.New(0xB1A57))
		if err != nil {
			t.Fatal(err)
		}
		var run goldenRun
		run.Requests, _ = tapped(t, "", func(base string, client *http.Client) {
			out, err := drive.Run(context.Background(), drive.Config{
				Client: drive.Client{Base: base, HTTP: client}, Noise: 0.2, Churn: 0.3, Seed: 7,
			}, []drive.Tenant{{
				History: "chain", Scenario: sc, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2},
			}})
			if err != nil {
				t.Fatal(err)
			}
			run.Decisions = out.Tenants[0].Decisions
			run.fill(out)
		})
		got["private"] = run
	})

	// A BLAST + WIEN2K pair co-scheduled on one shared grid (the
	// BenchmarkSharedGridContention shape).
	t.Run("shared", func(t *testing.T) {
		gp := workload.GridParams{InitialResources: 4, ChangeInterval: 400, ChangePct: 0.25, MaxEvents: 2}
		r := rng.New(0x5a12ed)
		bl, err := workload.BlastScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		if err != nil {
			t.Fatal(err)
		}
		wn, err := workload.Wien2kScenario(workload.AppParams{Parallelism: 12, CCR: 1, Beta: 0.5}, gp, r)
		if err != nil {
			t.Fatal(err)
		}
		var run goldenRun
		run.Requests, _ = tapped(t, "parity", func(base string, client *http.Client) {
			out, err := drive.Run(context.Background(), drive.Config{
				Client: drive.Client{Base: base, HTTP: client}, Grid: "parity",
				Pool: bl.Pool, Noise: 0.2, Churn: 0.3, Seed: 3,
			}, []drive.Tenant{
				{Name: "blast", Scenario: bl, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
				{Name: "wien2k", Scenario: wn, Policy: "aheft", Options: wire.Options{VarianceThreshold: 0.2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			run.fill(out)
		})
		got["shared"] = run
	})

	// One data-aware round on the link-constrained two-site grid,
	// enacted under the true data semantics.
	t.Run("data", func(t *testing.T) {
		sc := workload.DataScenario(workload.DataParams{Searches: 6, DBSize: 200, HitSize: 8})
		var run goldenRun
		run.Requests, run.PlannedTransferClaims = tapped(t, "parity-data", func(base string, client *http.Client) {
			out, err := drive.Run(context.Background(), drive.Config{
				Client: drive.Client{Base: base, HTTP: client}, Grid: "parity-data",
			}, []drive.Tenant{{Name: "data-0", Scenario: sc, Policy: "aheft"}})
			if err != nil {
				t.Fatal(err)
			}
			run.fill(out)
		})
		got["data"] = run
	})
	if t.Failed() {
		return
	}

	path := filepath.Join("testdata", "parity.golden.json")
	enc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		var w map[string]goldenRun
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		for name, g := range got {
			ge, _ := json.Marshal(g)
			we, _ := json.Marshal(w[name])
			if bytes.Equal(ge, we) {
				continue
			}
			for i := range g.Requests {
				if i >= len(w[name].Requests) || g.Requests[i] != w[name].Requests[i] {
					t.Errorf("%s: request %d diverges: got %q", name, i, g.Requests[i])
					break
				}
			}
			t.Errorf("%s: outcome or request sequence differs from the golden (%d vs %d requests)\n got %s\nwant %s",
				name, len(g.Requests), len(w[name].Requests), abbreviate(ge), abbreviate(we))
		}
		t.Fatal("parity golden mismatch (run with -update only for a deliberate wire or kernel change)")
	}
}

// fill copies an outcome into the golden's layout-independent shape.
func (g *goldenRun) fill(out *drive.Outcome) {
	g.FinalReservations = out.FinalReservations
	g.FinalTransferReservations = out.FinalTransferReservations
	for _, r := range out.Tenants {
		by := r.ByTrigger
		if by == nil {
			by = map[string]int{}
		}
		g.Rows = append(g.Rows, goldenRow{
			ID: r.ID, Name: r.Name, Jobs: r.Jobs,
			Adaptive: r.AdaptiveMakespan, Baseline: r.BaselineMakespan,
			Daemon: r.DaemonMakespan, Initial: r.InitialMakespan,
			Reports: r.Reports, Events: r.Events, Generation: r.Generation,
			Reschedules: r.Reschedules, ByTrigger: by,
		})
	}
}

// abbreviate keeps a mismatch report readable: the rows, not the
// thousand request lines.
func abbreviate(run []byte) string {
	var g goldenRun
	_ = json.Unmarshal(run, &g)
	g.Requests = nil
	out, _ := json.Marshal(g)
	return string(out)
}
