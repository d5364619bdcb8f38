package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"aheft/internal/rng"
	"aheft/internal/workload"
)

// decodeBenchBodies returns the two submission bodies the daemon's
// benchmarks are built on: the first of the root package's
// serverBenchBodies (a 60-job random DAG, 8 + 4×2 resources; same
// generator, seed and parameters) and the 1026-job data-aware fan-out of
// benchmark/'s live_data_staging.
func decodeBenchBodies(b *testing.B) map[string][]byte {
	b.Helper()
	sc, err := workload.RandomScenario(workload.RandomParams{
		Jobs: 60, CCR: 2, OutDegree: 0.3, Beta: 0.5,
	}, workload.GridParams{
		InitialResources: 8, ChangeInterval: 300, ChangePct: 0.25, MaxEvents: 4,
	}, rng.New(0xD0E))
	if err != nil {
		b.Fatal(err)
	}
	random60, err := EncodeSubmission(&Submission{Policy: "aheft", Graph: sc.Graph, Comp: sc.Table, Pool: sc.Pool})
	if err != nil {
		b.Fatal(err)
	}
	ds := workload.DataScenario(workload.DataParams{Searches: 1024})
	data1026, err := EncodeSubmission(&Submission{Mode: ModeLive, Graph: ds.Graph, Comp: ds.Table, Files: ds.Files, Pool: ds.Pool})
	if err != nil {
		b.Fatal(err)
	}
	return map[string][]byte{"random60": random60, "data1026": data1026}
}

// BenchmarkWireDecode times DecodeSubmission on the benchmark bodies, and
// under oracle/ the reflective decoder it replaced on the same bytes in
// the same run — CI gates the ratio of the two (ci.yml, bench job), so
// the decoder cannot drift back toward the reflective cost unnoticed.
func BenchmarkWireDecode(b *testing.B) {
	bodies := decodeBenchBodies(b)
	for _, name := range []string{"random60", "data1026"} {
		body := bodies[name]
		run := func(name string, decode func([]byte, Limits) (*Submission, error)) {
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if _, err := decode(body, Limits{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run(name, DecodeSubmission)
		run("oracle/"+name, oracleDecodeSubmission)
	}
}

// BenchmarkWireDecodeReport times DecodeReport on a one-event report (what
// an enactor posts per job start or finish) and a 16-event batch, and under
// oracle/ the json.Unmarshal decoder it replaced on the same bytes.
func BenchmarkWireDecodeReport(b *testing.B) {
	for _, n := range []int{1, 16} {
		r := &Report{}
		for i := 0; i < n; i++ {
			r.Events = append(r.Events, ReportEvent{Kind: ReportJobFinished, Time: 100.5 + float64(i), Job: 500 + i, Resource: 3, Duration: 7.25})
		}
		body, err := EncodeReport(r)
		if err != nil {
			b.Fatal(err)
		}
		run := func(prefix string, decode func([]byte, int) (*Report, error)) {
			b.Run(fmt.Sprintf("%sevents%d", prefix, n), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					if _, err := decode(body, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("", DecodeReport)
		run("oracle/", oracleDecodeReport)
	}
}

// BenchmarkWireEncodeAck times AppendReportAck into a reused buffer on an
// adopting ack — a 50-job plan (a BLAST workflow's) and a 1026-job one
// (benchmark/'s live_data_staging) — and under oracle/ the indenting
// json.Encoder the daemon answered with before, on the same acks in the
// same run; CI gates the ratio of the two like BenchmarkWireDecode's.
// next1026 is a 1026-job ack encoded through the workflow's AckMemo after
// the generation before it (benchNext's mix), two generations alternating;
// CI gates it against plan1026, an ack of the same size without a memo.
func BenchmarkWireEncodeAck(b *testing.B) {
	for _, n := range []int{50, 1026} {
		ack := benchAck(n)
		name := fmt.Sprintf("plan%d", n)
		b.Run(name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				buf, _ = AppendReportAck(buf[:0], ack, nil)
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run("oracle/"+name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				buf.Reset()
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(ack); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
	b.Run("next1026", func(b *testing.B) {
		var (
			buf  []byte
			m    AckMemo
			i    int
			gens = benchGenerations()
		)
		buf, _ = AppendReportAck(buf, gens[0], &m)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			i++
			buf, _ = AppendReportAck(buf[:0], gens[i&1], &m)
		}
		b.SetBytes(int64(len(buf)))
	})
}
