package drive_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aheft/internal/drive"
	"aheft/internal/wire"
)

// TestClientErrorsCarryDaemonText: whatever the daemon answers that is
// not a decodable 2xx comes back as an error naming the status code and
// the daemon's {"error": …} text — a rejected report reads "HTTP 400:
// non-monotonic clock", not "HTTP 400".
func TestClientErrorsCarryDaemonText(t *testing.T) {
	for _, tc := range []struct {
		name       string
		code       int
		body       string
		retryAfter string
		want       string // substring of the error
		wantCode   int
		wantRetry  time.Duration
	}{
		{name: "bad request", code: 400, body: `{"error":"report: non-monotonic clock"}`, want: "HTTP 400: report: non-monotonic clock", wantCode: 400},
		{name: "conflict", code: 409, body: `{"error":"workflow is terminal"}`, want: "HTTP 409: workflow is terminal", wantCode: 409},
		{name: "backpressure", code: 429, body: `{"error":"tenant backlog full"}`, retryAfter: "3", want: "HTTP 429: tenant backlog full", wantCode: 429, wantRetry: 3 * time.Second},
		{name: "recovering gate", code: 503, body: `{"status":"recovering"}`, retryAfter: "1", want: "HTTP 503", wantCode: 503, wantRetry: time.Second},
		{name: "undecodable 2xx", code: 200, body: `<html>not json</html>`, want: "decode response"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.code)
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			c := &drive.Client{Base: ts.URL + "/", HTTP: ts.Client()}
			_, err := c.Report(context.Background(), "wf-1", []wire.ReportEvent{{Kind: wire.ReportJobStarted, Job: 0, Resource: 0}})
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "report wf-1") {
				t.Fatalf("Report error = %v, want it to name the report and contain %q", err, tc.want)
			}
			var he *drive.HTTPError
			if errors.As(err, &he) != (tc.wantCode != 0) {
				t.Fatalf("errors.As(HTTPError) = %v for %v", !(tc.wantCode != 0), err)
			}
			if he != nil && (he.Code != tc.wantCode || he.RetryAfter != tc.wantRetry) {
				t.Fatalf("HTTPError = %+v, want code %d retry-after %s", he, tc.wantCode, tc.wantRetry)
			}
			if _, err := c.Status(context.Background(), "wf-1"); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Status error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestClientSubmitAndPlanRetry: Submit rides out 429s (counting them) and
// Plan rides out 409s; anything else fails at once with the daemon's text,
// and a cancelled context ends either wait.
func TestClientSubmitAndPlanRetry(t *testing.T) {
	var submits, plans atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/workflows":
			if submits.Add(1) <= 2 {
				w.WriteHeader(http.StatusTooManyRequests) // no Retry-After: the 20 ms default
				fmt.Fprint(w, `{"error":"queue full"}`)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"wf-7"}`)
		case r.URL.Path == "/v1/workflows/wf-7/plan":
			if plans.Add(1) <= 3 {
				w.WriteHeader(http.StatusConflict)
				fmt.Fprint(w, `{"error":"not yet planned"}`)
				return
			}
			fmt.Fprint(w, `{"generation":1,"makespan":80}`)
		case r.URL.Path == "/v1/workflows/stuck/plan":
			w.WriteHeader(http.StatusConflict)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown workflow"}`)
		}
	}))
	defer ts.Close()
	c := &drive.Client{Base: ts.URL, HTTP: ts.Client()}
	ctx := context.Background()

	id, retries, err := c.Submit(ctx, []byte(`{}`))
	if err != nil || id != "wf-7" || retries != 2 {
		t.Fatalf("Submit = %q, %d retries, %v; want wf-7 after 2", id, retries, err)
	}
	plan, err := c.Plan(ctx, id)
	if err != nil || plan.Generation != 1 || plan.Makespan != 80 || plans.Load() != 4 {
		t.Fatalf("Plan = %+v, %v after %d polls", plan, err, plans.Load())
	}
	if _, err := c.Plan(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "HTTP 404: unknown workflow") {
		t.Fatalf("Plan(unknown) = %v", err)
	}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := c.Plan(short, "stuck"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Plan(stuck) under a deadline = %v", err)
	}
	submits.Store(-1 << 20) // 429 for the rest of the test
	short2, cancel2 := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancel2()
	if _, retries, err := c.Submit(short2, []byte(`{}`)); !errors.Is(err, context.DeadlineExceeded) || retries < 1 {
		t.Fatalf("Submit under a deadline = %d retries, %v", retries, err)
	}
}

// TestClientWaitReady: connection refused, then the 503 recovery gate,
// then "ready".
func TestClientWaitReady(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status":"recovering"}`)
			return
		}
		fmt.Fprint(w, `{"status":"ready"}`)
	}))
	c := &drive.Client{Base: ts.URL, HTTP: ts.Client()}
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil || calls.Load() != 3 {
		t.Fatalf("WaitReady = %v after %d probes", err, calls.Load())
	}
	ts.Close()
	if err := c.WaitReady(context.Background(), 120*time.Millisecond); err == nil || !strings.Contains(err.Error(), "not ready after") {
		t.Fatalf("WaitReady against a closed port = %v", err)
	}
}

// TestReplay: a prefix at any clock followed by the remainder given that
// prefix is the full replay; time never runs backwards; at equal times
// starts precede finishes; no event appears twice.
func TestReplay(t *testing.T) {
	plan := &wire.Plan{Assignments: []wire.Assignment{
		{Job: 0, Resource: 0, Start: 0, Finish: 10},
		{Job: 1, Resource: 1, Start: 10, Finish: 25}, // starts as job 0 finishes
		{Job: 2, Resource: 0, Start: 10, Finish: 12}, // ... and so does this one
		{Job: 3, Resource: 2, Start: 12, Finish: 25},
		{Job: 4, Resource: 0, Start: 25, Finish: 40},
	}}
	full := drive.Replay(plan, math.Inf(1), nil)
	if len(full) != 2*len(plan.Assignments) {
		t.Fatalf("full replay has %d events, want %d", len(full), 2*len(plan.Assignments))
	}
	check := func(name string, evs []wire.ReportEvent) {
		t.Helper()
		seen := map[string]bool{}
		for i, ev := range evs {
			k := fmt.Sprintf("%s/%d", ev.Kind, ev.Job)
			if seen[k] {
				t.Fatalf("%s: event %s appears twice", name, k)
			}
			seen[k] = true
			if i == 0 {
				continue
			}
			prev := evs[i-1]
			if ev.Time < prev.Time {
				t.Fatalf("%s: time runs backwards at %d: %v after %v", name, i, ev, prev)
			}
			if ev.Time == prev.Time && prev.Kind == wire.ReportJobFinished && ev.Kind == wire.ReportJobStarted {
				t.Fatalf("%s: finish before start at t=%g: %v then %v", name, ev.Time, prev, ev)
			}
		}
	}
	check("full", full)
	for _, ev := range full {
		if ev.Kind == wire.ReportJobFinished && ev.Duration != plan.Assignments[ev.Job].Finish-plan.Assignments[ev.Job].Start {
			t.Fatalf("finish %v carries the wrong duration", ev)
		}
	}
	for _, clock := range []float64{-1, 0, 5, 10, 10.5, 12, 25, 30, 40, 41} {
		prefix := drive.Replay(plan, clock, nil)
		rest := drive.Replay(plan, math.Inf(1), prefix)
		check(fmt.Sprintf("prefix@%g", clock), prefix)
		for _, ev := range prefix {
			if (ev.Kind == wire.ReportJobStarted && ev.Time >= clock) || ev.Time > clock {
				t.Fatalf("prefix@%g holds %v from the future", clock, ev)
			}
		}
		check(fmt.Sprintf("rest@%g", clock), rest)
		joined := append(append([]wire.ReportEvent(nil), prefix...), rest...)
		if !sameEvents(joined, full) {
			t.Fatalf("prefix@%g ++ remainder != full replay:\n got %v\nwant %v", clock, joined, full)
		}
	}
}

// sameEvents compares as multisets: a split at clock puts the finishes at
// exactly clock ahead of the starts at clock, where one pass sorts them
// the other way round.
func sameEvents(a, b []wire.ReportEvent) bool {
	if len(a) != len(b) {
		return false
	}
	count := func(evs []wire.ReportEvent) map[wire.ReportEvent]int {
		m := map[wire.ReportEvent]int{}
		for _, ev := range evs {
			m[ev]++
		}
		return m
	}
	return reflect.DeepEqual(count(a), count(b))
}
