package server

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"aheft/internal/durable"
	"aheft/internal/wire"
)

// The journal's encoders: every document the WAL and its snapshots hold is
// written by hand through wire.Appender, and must be what json.Marshal
// would write — but for raw bodies, which are copied verbatim.

// journalDocs makes an empty value of each journal document.
var journalDocs = map[string]func() wire.Doc{
	"submission": func() wire.Doc { return new(walSubmission) },
	"grid":       func() wire.Doc { return new(walGrid) },
	"state":      func() wire.Doc { return new(walState) },
	"terminal":   func() wire.Doc { return new(walTerminal) },
	"snapshot":   func() wire.Doc { return new(shardSnapshot) },
}

func appendDoc(d wire.Doc) ([]byte, error) {
	e := wire.NewAppender([]byte("x"))
	d.AppendJSON(&e)
	b, err := e.Done()
	if err != nil {
		return nil, err
	}
	return b[1:], nil
}

// poison sets the k-th settable float64 reachable from v, in field order,
// to bad and reports whether there was one; k counts down the floats
// passed.
func poison(v reflect.Value, k *int, bad float64) bool {
	switch v.Kind() {
	case reflect.Float64:
		if *k == 0 {
			v.SetFloat(bad)
			return true
		}
		*k--
	case reflect.Pointer:
		return !v.IsNil() && poison(v.Elem(), k, bad)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if poison(v.Index(i), k, bad) {
				return true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && poison(v.Field(i), k, bad) {
				return true
			}
		}
	}
	return false
}

// checkJournalParity decodes doc as the document mk makes, if
// json.Unmarshal takes it, and holds its encoder to json.Marshal: the same
// document whatever the bodies' whitespace, the same bytes once they are
// compact, and the same refusal of the NaN or infinity poison puts in.
func checkJournalParity(t *testing.T, name string, mk func() wire.Doc, doc []byte, k int) {
	t.Helper()
	v := mk()
	if json.Unmarshal(doc, v) != nil {
		return
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	got, err := appendDoc(v)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	back := mk()
	if err := json.Unmarshal(got, back); err != nil {
		t.Fatalf("%s: encoding does not decode: %v\n%s", name, err, got)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, want) {
		t.Fatalf("%s: encoding decodes to another document:\n got %s\nwant %s", name, again, want)
	}
	compact := mk()
	if err := json.Unmarshal(want, compact); err != nil {
		t.Fatal(err)
	}
	if got, err = appendDoc(compact); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: with compact bodies (err %v):\n got %s\nwant %s", name, err, got, want)
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k%3]
	if k /= 3; !poison(reflect.ValueOf(compact), &k, bad) {
		return
	}
	if _, err := json.Marshal(compact); err == nil {
		t.Fatalf("%s: json.Marshal took %v", name, bad)
	}
	if got, err := appendDoc(compact); err == nil {
		t.Fatalf("%s: encoder took %v: %s", name, bad, got)
	}
}

// FuzzAppendJournalParity tries every input as each journal document.
// k picks the number poison spoils. Seeded with every record and snapshot
// of the full-state fixture, and corners: strings that need escapes, bodies
// that are not compact, omitempty fields at and off their zero values,
// phase in each of its three forms.
func FuzzAppendJournalParity(f *testing.F) {
	for _, shard := range []string{"shard-0", "shard-1"} {
		dir := filepath.Join("testdata", "wal-full-states", shard)
		rec, err := durable.Load(dir)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Snapshot, uint16(len(rec.Records)))
		for i, r := range rec.Records {
			f.Add([]byte(r.Data), uint16(i))
		}
	}
	for i, s := range []string{
		`{"id":"wf-1","body":{"v":2,  "name":"a<b>&c"}}`, `{"id":"wf-1","body":null}`, `{"id":" \"\\\u0001é"}`,
		`{"id":"wf-2","tenant":"t","class":"high","weight":0.5}`, `{"id":"wf-2","weight":-0}`,
		`{"name":"g","spec":{"v":2,"pool":[{"t":0,"name":"r0"}]}}`,
		`{"id":"wf-1","tenant":"t","body":[1, 2],"rev":3,"acked_gen":2,"reports":5,"plan_trigger":"arrival","fast_path":true,"upgraded":true,` +
			`"state":{"generation":2,"initial":80,"clock":1e-7,"assignments":[{"job":0,"resource":1,"start":0,"finish":1e21}],"phase":"AQI=",` +
			`"start_at":[1.5,null],"start_res":[2],"finish_at":[],"pin_dur":null,"avail":[true,false],` +
			`"decisions":[{"clock":15,"pool_size":4,"old_makespan":-1,"new_makespan":76,"adopted":true,"jobs_finished":3,"trigger":"arrival","arrived":1,"elapsed_ms":0.25}],` +
			`"adoptions":1,"done":true,"makespan":76,"transfers":[{"from":1,"to":2,"resource":3,"at":4.5}],` +
			`"reservations":[{"Job":1,"Resource":2,"Start":3,"Finish":4,"Pinned":true}]},` +
			`"deltas":[{"op":"blast","resource":2,"duration":7.5}],` +
			`"events":[{"seq":4,"kind":"decision","workflow":"wf-1","time":15,"decision":{"clock":15},"trigger":"arrival","arrived":1},` +
			`{"seq":5,"kind":"plan","workflow":"wf-1","generation":2,"makespan":76,"error":"<é>"}]}`,
		`{"id":"a","state":{"phase":[1,2]}}`, `{"id":"a","state":{"phase":null,"assignments":[]}}`, `{"id":"a","state":{"phase":""}}`,
		`{"id":"a","patch":{"generation":2,"done":true,"jobs":[{"job":3,"phase":2,"start_at":1.5}],"avail":[3],` +
			`"assignments":[{"job":4,"resource":1,"start":10,"finish":12}],"decisions":[{"trigger":"variance"}],` +
			`"transfers":{"del":[0,2]},"reservations":{"put":[{"at":0,"v":{"Job":1,"Pinned":true}}]}}}`,
		`{"id":"a","patch":{"transfers":{},"reservations":{"del":[1],"put":[{"at":1,"v":{}}]}}}`,
		`{"id":"wf-9","status":{"id":"wf-9","name":"n","state":"done","mode":"live","tenant":"t","grid":"g","generation":2,"reports":3,` +
			`"policy":"aheft","shard":1,"jobs":10,"resources":3,"events":4,"queue_ms":0.5,"compute_ms":1.25,"makespan":76,` +
			`"initial_makespan":80,"improvement":0.05,"decisions":[{"clock":15,"trigger":"arrival"}],"adoptions":1,"error":"x"},` +
			`"plan":{"workflow":"wf-9","generation":2,"trigger":"arrival","makespan":76,"assignments":null},"events":[{"seq":0,"kind":"submitted"}]}`,
		`{"id":"wf-9","status":{"id":"wf-9","state":"failed"},"plan":{"assignments":[]}}`,
		`{"v":2,"seq":7,"grids":[{"name":"g","spec":{"v":2}}],"pending":[{"id":"wf-3","body":{ "v":2 }}],"admissions":[{"id":"wf-3"}],` +
			`"live":[{"id":"wf-1","state":{"generation":1,"phase":"AA=="}}],"terminal":[{"id":"wf-9","status":{"state":"done"}}],` +
			`"tenants":[{"tenant":"t","alpha":0.3,"cells":[{"op":"blast","resource":1,"count":2,"mean":1.5,"ewma":1.25,"min":1,"max":2,"last":2}]},{"tenant":"u","cells":null}]}`,
		`{"v":2,"seq":0,"grids":[],"live":[],"tenants":[]}`,
	} {
		f.Add([]byte(s), uint16(i))
	}
	f.Fuzz(func(t *testing.T, doc []byte, k uint16) {
		for name, mk := range journalDocs {
			checkJournalParity(t, name, mk, doc, int(k))
		}
	})
}

// BenchmarkWALStateEncode times walState's encoder over the state records
// of a BLAST workflow's whole life (the whole state that starts the chain,
// then its patches), one record per op in log order, and under oracle/
// json.Marshal on the same records in the same run; CI gates the ratio.
func BenchmarkWALStateEncode(b *testing.B) {
	var recs []walState
	total := 0
	for _, data := range blastStateRecords(b) {
		var p walState
		if err := scanDoc(data, &p); err != nil {
			b.Fatal(err)
		}
		recs = append(recs, p)
		total += len(data)
	}
	run := func(name string, encode func(buf []byte, p *walState) ([]byte, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(total / len(recs)))
			b.ReportAllocs()
			var buf []byte
			i := 0
			b.ResetTimer()
			for range b.N {
				out, err := encode(buf[:0], &recs[i%len(recs)])
				if err != nil {
					b.Fatal(err)
				}
				buf = out
				i++
			}
		})
	}
	run("append", func(buf []byte, p *walState) ([]byte, error) {
		e := wire.NewAppender(buf)
		p.AppendJSON(&e)
		return e.Done()
	})
	run("oracle", func(buf []byte, p *walState) ([]byte, error) { return json.Marshal(p) })
}

// blastStateRecords is the state-record payloads a durable daemon
// journals over blast24Life, in log order.
func blastStateRecords(b *testing.B) [][]byte {
	l := blast24Life(b)
	dir := b.TempDir()
	srv, ts := openDurable(b, dir, Config{Shards: 1, WALSync: "off", SnapshotInterval: time.Hour})
	id := submitLife(b, ts, l)
	for _, body := range l.reports {
		postReport(b, ts, id, body)
	}
	ts.Close()
	srv.Crash()
	return stateRecords(b, filepath.Join(dir, "shard-0"))
}
