package server

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"aheft/internal/obs"
	"aheft/internal/planner"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics.golden.{json,prom}")

// TestMetricsWireGolden pins the /metrics wire names byte for byte, in
// both renderings: one document assembled by Metrics.snapshot from
// recorded samples (every trigger window, every admission window) plus
// every gauge a snapshot takes as an argument.
func TestMetricsWireGolden(t *testing.T) {
	m := NewMetrics()
	for i := range planner.TriggerNames {
		for k := 0; k <= i; k++ {
			m.recordDecision(planner.Decision{Trigger: planner.Trigger(i), ElapsedMs: 0.25 * float64(1+i+k)})
		}
	}
	for i := 1; i <= 5; i++ {
		m.compute.record(1.5 * float64(i))
		m.admWaitMs.record(0.125 * float64(i))
		m.admInitialFastMs.record(0.5 * float64(i))
		m.admInitialFullMs.record(2 * float64(i))
	}
	for k := range m.admAdmitted {
		m.admAdmitted[k].Add([]uint64{7, 5, 3}[k])
		m.admFastPath[k].Add([]uint64{0, 1, 2}[k])
		m.admUpgraded[k].Add([]uint64{0, 1, 1}[k])
		m.admRejected[k].Add([]uint64{0, 0, 9}[k])
	}
	m.submissions.Add(101)
	m.accepted.Add(92)
	m.rejectedFull.Add(9)
	m.rejectedInvalid.Add(2)
	m.rejectedDrain.Add(1)
	m.abandonedIntake.Add(3)
	m.completed.Add(80)
	m.failed.Add(4)
	m.decisions.Add(55)
	m.reschedules.Add(21)
	m.evicted.Add(6)
	m.reports.Add(400)
	m.reportEvents.Add(790)
	m.reportsRejected.Add(5)
	m.reportsDuplicate.Add(8)
	m.whatifs.Add(11)
	m.reschedVariance.Add(9)
	m.reschedArrival.Add(6)
	m.reschedDeparture.Add(1)
	m.reschedContention.Add(3)
	m.reschedUpgrade.Add(2)
	m.liveResident.Add(8)
	m.historyEvicted.Add(1)
	m.eventsEmitted.Add(1234)
	m.eventsDropped.Add(1)
	m.walErrors.Add(1)
	m.walSkipped.Add(2)
	m.recorderRecords.Add(77)
	m.recorderErrors.Add(1)
	for i := 0; i < 10; i++ {
		m.inflightReserve()
	}
	m.inflightRelease()
	m.inflightRelease()

	doc := m.snapshot([]int{3, 0, 5}, 4, 96, 2, 17, 5,
		AdmissionGauges{PerTenant: map[string]int{"greedy": 6, "alice": 2}, DrainRate: 41.5},
		DurabilityStats{WALAppends: 500, WALBytes: 123456, Snapshots: 3, Recovered: 12, RecoveryMs: 20.25},
		ObsStats{Spans: 900, Dropped: 4, Stages: map[string]obs.StageStats{
			"evaluate": {Count: 40, P50: 0.2, P90: 0.4, P99: 0.9},
			"adopt":    {Count: 21, P50: 0.01, P90: 0.02, P99: 0.05},
		}})
	doc.UptimeS = 12.5

	jsonRec := httptest.NewRecorder()
	writeJSON(jsonRec, 200, doc)
	promRec := httptest.NewRecorder()
	writePrometheus(promRec, doc)
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
