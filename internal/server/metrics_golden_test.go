package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aheft/internal/admission"
	"aheft/internal/planner"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics.golden.{json,prom}")

// TestMetricsWireGolden pins the /metrics wire names byte for byte, in
// both renderings of goldenDoc.
func TestMetricsWireGolden(t *testing.T) {
	jsonRec, promRec := renderBoth(goldenDoc())
	for name, got := range map[string][]byte{
		"metrics.golden.json": jsonRec.Body.Bytes(),
		"metrics.golden.prom": promRec.Body.Bytes(),
	} {
		path := filepath.Join("testdata", name)
		if *updateMetricsGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: /metrics wire bytes changed\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestEverySignalRendersTwice holds every MetricsDoc field to the rule the
// type states: a key in the JSON document under its json name and, unless
// listed JSON-only here, a family of its own in the Prometheus exposition,
// with a HELP line. A signal is added by adding a field, so this is what
// keeps the two renderings from drifting apart.
func TestEverySignalRendersTwice(t *testing.T) {
	jsonOnly := map[string]bool{"RecoveryMs": true}
	jsonRec, promRec := renderBoth(goldenDoc())
	var obj map[string]any
	if err := json.Unmarshal(jsonRec.Body.Bytes(), &obj); err != nil {
		t.Fatal(err)
	}
	prom := promRec.Body.String()
	owner := map[string]string{} // family → the field that opened it
	var walk func(rt reflect.Type, obj map[string]any)
	walk = func(rt reflect.Type, obj map[string]any) {
		prev := ""
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			val, ok := obj[key]
			if !ok {
				t.Errorf("%s: no %q key in the JSON document", f.Name, key)
			}
			tag, ok := f.Tag.Lookup("prom")
			if !ok {
				if section, isObj := val.(map[string]any); isObj && f.Type.Kind() == reflect.Struct {
					walk(f.Type, section)
				} else if !jsonOnly[f.Name] {
					t.Errorf("%s: no prom tag, and not listed JSON-only", f.Name)
				}
				continue
			}
			fam, _, _ := strings.Cut(tag, ",")
			if first, dup := owner[fam]; dup && fam != prev {
				t.Errorf("%s: family %s already belongs to %s", f.Name, fam, first)
			}
			if fam != prev {
				owner[fam] = f.Name
				if !strings.Contains(prom, "# HELP aheft_"+fam+" "+f.Tag.Get("help")+"\n") || f.Tag.Get("help") == "" {
					t.Errorf("%s: no HELP line for aheft_%s", f.Name, fam)
				}
			}
			if !strings.Contains(prom, "\naheft_"+fam) {
				t.Errorf("%s: no aheft_%s sample in the exposition", f.Name, fam)
			}
			prev = fam
		}
	}
	walk(reflect.TypeFor[MetricsDoc](), obj)
}

func renderBoth(doc MetricsDoc) (jsonRec, promRec *httptest.ResponseRecorder) {
	jsonRec, promRec = httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(jsonRec, 200, doc)
	writePrometheus(promRec, doc)
	return jsonRec, promRec
}

// goldenDoc is one document with every signal set: counters and latency
// windows recorded through Metrics, and every gauge Server.MetricsSnapshot
// fills in.
func goldenDoc() MetricsDoc {
	m := NewMetrics()
	for i := range planner.TriggerNames {
		for k := 0; k <= i; k++ {
			m.resched[i].Record(0.25 * float64(1+i+k))
		}
	}
	for i := 1; i <= 5; i++ {
		m.compute.Record(1.5 * float64(i))
		m.admWait.Record(0.125 * float64(i))
		m.admInitial.Record(2 * float64(i))
	}
	for i := 0; i < 10; i++ {
		m.inflightReserve()
	}
	m.inflightRelease()
	m.inflightRelease()
	m.count(func(c *MetricsDoc) {
		for k, class := range admission.ClassNames {
			c.Admission.AdmittedByClass[class] = []uint64{7, 5, 3}[k]
			c.Admission.RejectedByClass[class] = []uint64{0, 0, 9}[k]
		}
		c.Submissions, c.Accepted, c.RejectedFull, c.RejectedInvalid, c.RejectedDrain, c.AbandonedIntake = 101, 92, 9, 2, 1, 3
		c.Completed, c.Failed, c.Decisions, c.Reschedules, c.Evicted = 80, 4, 55, 21, 6
		c.Reports, c.ReportEvents, c.ReportsRejected, c.ReportsDuplicate, c.WhatIfQueries = 400, 790, 5, 8, 11
		c.ReschedulesVariance, c.ReschedulesArrival, c.ReschedulesDeparture = 9, 6, 1
		c.ReschedulesContention = 3
		c.LiveResident, c.HistoryEvicted = 8, 1
		c.EventsEmitted, c.EventsDropped, c.WALErrors, c.WALRecordsSkipped = 1234, 1, 1, 2
		c.RecorderRecords, c.RecorderErrors = 77, 1
	})

	doc := m.snapshot()
	doc.UptimeS, doc.Shards, doc.QueueDepth = 12.5, 3, []int{3, 0, 5}
	doc.HistoryTenants, doc.HistoryCells = 4, 96
	doc.SharedGrids, doc.Reservations, doc.TransferReservations = 2, 17, 5
	doc.Admission.QueueDepthByTenant = map[string]int{"greedy": 6, "alice": 2}
	doc.Admission.DrainRatePerS = 41.5
	doc.WALAppends, doc.WALBytes, doc.Snapshots = 500, 123456, 3
	doc.RecoveredWorkflows, doc.RecoveryMs = 12, 20.25
	doc.TraceSpans, doc.TraceSpansDropped = 900, 4
	doc.TraceStageMs = map[string]LatencyMs{
		"evaluate": {Count: 40, P50: 0.2, P90: 0.4, P99: 0.9},
		"adopt":    {Count: 21, P50: 0.01, P90: 0.02, P99: 0.05},
	}
	return doc
}

// TestMetricsCountConcurrently bumps counters and the in-flight gauge from
// several goroutines while others take snapshots and write into them: no
// count is lost, and a snapshot owns its maps.
func TestMetricsCountConcurrently(t *testing.T) {
	m := NewMetrics()
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.inflightReserve()
				m.count(func(c *MetricsDoc) {
					c.Reports++
					c.Admission.AdmittedByClass[admission.ClassNames[i%3]]++
				})
				m.decided([]planner.Decision{{Trigger: planner.TriggerVariance, Adopted: i%2 == 0}})
				m.count(func(c *MetricsDoc) { c.terminal(false) })
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/10; i++ {
				doc := m.snapshot()
				doc.Admission.AdmittedByClass[admission.ClassNames[0]] = 1 << 40
			}
		}()
	}
	wg.Wait()
	doc := m.snapshot()
	admitted := uint64(0)
	for _, n := range doc.Admission.AdmittedByClass {
		admitted += n
	}
	if want := uint64(workers * rounds); doc.Reports != want || admitted != want || doc.Completed != want ||
		doc.Decisions != want || doc.ReschedulesVariance != want/2 || doc.RescheduleMs["variance"].Count != want {
		t.Fatalf("lost counts: reports %d admitted %d completed %d decisions %d variance %d window %d, want %d",
			doc.Reports, admitted, doc.Completed, doc.Decisions, doc.ReschedulesVariance, doc.RescheduleMs["variance"].Count, want)
	}
	if doc.Inflight != 0 || doc.InflightPeak < 1 || doc.InflightPeak > workers {
		t.Fatalf("in-flight %d, peak %d", doc.Inflight, doc.InflightPeak)
	}
}
