package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"aheft/internal/cost"
	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/jsonscan"
)

// parityLimits are tight enough that the fuzzer meets the limit checks.
var parityLimits = Limits{MaxJobs: 2000, MaxResources: 200, MaxFiles: 200}

// corpus returns the inputs of a committed fuzz corpus directory
// (testdata/fuzz/<target>), so one target's findings seed another.
func corpus(f *testing.F, target string) [][]byte {
	f.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus for %s: %v", target, err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, arg, ok := strings.Cut(string(raw), "\n[]byte(")
		if !ok {
			f.Fatalf("%s: not a []byte corpus entry", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(arg), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// nested returns a value nested depth arrays deep.
func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

const (
	tinyGraph = `{"name":"g","jobs":[{"name":"a"},{"name":"b","op":"x"}],"edges":[{"from":"a","to":"b","data":2}]}`
	tinyRest  = `"comp":[[1,2],[3,4]],"pool":[{"t":0,"name":"r0"},{"t":5,"name":"r1"}]`
	tinyPool  = `{"links":{"wan":5},"resources":[{"t":0,"name":"r0","up":10,"link":"wan"},{"t":0,"name":"r1","down":8,"store":100}]}`
)

// hostileSubmissions are the corners where a hand-written decoder and
// encoding/json are most likely to part ways.
var hostileSubmissions = []string{
	// Repeated keys: last wins; options and files merge; slices keep slots.
	`{"v":1,"v":2,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"options":{"eps":1,"class":"low"},"options":{"class":"high"},"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"graph":{"jobs":[{"name":"a","op":"x"},{"name":"b"}],"jobs":[{"name":"c"}],"jobs":[{},{}],"edges":[]},"comp":[[1],[1]],"pool":[{"t":0}]}`,
	`{"graph":{"jobs":[{"name":"a"},{"name":"b"}],"jobs":[],"jobs":[{"name":"z"}]},"comp":[[1]],"pool":[{"t":0}]}`,
	`{"graph":{"jobs":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","data":3}],"edges":[{"data":null}]},"comp":[[1],[1]],"pool":[{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"graph":null,` + tinyRest + `}`,
	`{"graph":5,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":5,"pool":[{"t":0},{"t":1}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":[{"t":0},{"t":1}],"pool":"shared:g","mode":"live"}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":"shared:g","pool":null}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"mode":"live","pool":"shared:g\ud800"}`,
	`{"v":2,"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"files":{"bw":2,"files":[{"id":"db","size":10,"hosts":[0,1]}]},"files":{"files":[{"size":4,"hosts":[null]}]},"pool":` + tinyPool + `}`,
	`{"v":2,"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"files":{"files":[{"id":"db","size":1,"hosts":[0]}]},"files":null,"files":{"files":[]},"pool":` + tinyPool + `}`,
	`{"v":2,"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"files":{"files":[{"id":"db","size":1,"hosts":[]}]},"pool":` + tinyPool + `}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":{"links":{"a":1},"links":{"b":2,"a":null,"a":3},"resources":[{"t":0,"link":"a"},{"t":0,"link":"b"}],"resources":[{"name":"x"}, null]}}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":{"links":{"a":null},"links":null,"resources":[{"t":0},{"t":0}]}}`,
	// Case-folded and escaped keys.
	`{"V":1,"GRAPH":` + tinyGraph + `,"Comp":[[1,2],[3,4]],"POOL":[{"T":0,"Name":"r"},{"t":1}]}`,
	`{"v":1,"graph":{"jobs":[{"name":"a"}],"edgeſ":[]},"comp":[[1]],"pool":[{"t":0}]}`,
	`{"graph":{"JOBS":[{"NAME":"a"}],"jobs":[{"Op":"x"}]},"comp":[[1]],"pool":[{"t":0}],"optionS":{"TIE_WINDOW":0.5,"claſſ":"low"}}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":{"lin\u212as":{"a":1},"resources":[{"t":0,"linK":"a"},{"t":0}]}}`,
	// null at every field.
	`{"v":null,"name":null,"mode":null,"tenant":null,"policy":null,"options":null,"graph":null,"comp":null,"files":null,"pool":null}`,
	`{"v":1,"options":{"tie_window":null,"no_insertion":null,"eps":null,"class":null,"weight":null},"graph":{"v":null,"name":null,"jobs":[{"name":"a","op":null},null],"edges":null},"comp":[[1,1],[1,1]],"pool":[{"t":null,"name":null,"up":null},null]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,null],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],null],"pool":[{"t":0},{"t":0}]}`,
	`null`,
	// Ragged matrices: a row shorter than the first with input to spare, one
	// the rest of the input could not fill, and a full last row flush with
	// the end of the document.
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"pool":[{"t":0},{"t":0}],"comp":[[1,2,3,4,5,6,7,8],[1]]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4,5]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"pool":[{"t":0},{"t":0}],"comp":[[1,2],[3,4]]}`,
	// Strings: escapes, surrogates, invalid UTF-8, control characters.
	`{"name":"a\"b\\c\/é😀\ud800","graph":{"jobs":[{"name":"j\b\f\n\r\t\u0000 ","op":"\u00e9\ud83d\ude00"}]},"comp":[[1]],"pool":[{"t":0,"name":"ré"}]}`,
	"{\"name\":\"\xff\xfe\",\"graph\":{\"jobs\":[{\"name\":\"\xc3\x28\"},{\"name\":\"\xef\xbf\xbd(\"}]},\"comp\":[[1],[1]],\"pool\":[{\"t\":0}]}",
	"{\"graph\":{\"jobs\":[{\"name\":\"\xc3\x28\",\"op\":\"\xe2\x82\"}]},\"comp\":[[1]],\"pool\":[{\"t\":0,\"name\":\"\x80\"}]}",
	"{\"tenant\":\"a\x01b\",\"graph\":" + tinyGraph + "," + tinyRest + "}",
	"{\"tenant\":\"a\x7fb\",\"graph\":" + tinyGraph + "," + tinyRest + "}",
	`{"name":"bad\x escape","graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"zzz":"bad\u12g4","graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"zzz":"\ud800 lone, unknown key","zz\ud800":1,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"name":"unterminated`,
	// Numbers.
	`{"graph":` + tinyGraph + `,"comp":[[1e999,2],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1e-999,2],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"v":1.0,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"v":1e0,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"v":-0,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"v":99999999999999999999,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"v":01,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"graph":` + tinyGraph + `,"comp":[[1.,2],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[.5,2],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[+1,2],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1E+2,2e-1],[3.25,-0.0]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[["1",2],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"v":"1","graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"name":7,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"options":{"no_insertion":1},"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"options":{"no_insertion":true,"restart_running":false},"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"v":2,"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"files":{"files":[{"id":"db","size":1,"hosts":[1.0]}]},"pool":` + tinyPool + `}`,
	// Nesting at and past encoding/json's limit, in a skipped value.
	`{"x":` + nested(9999) + `,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"x":` + nested(10000) + `,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"graph":{"jobs":[{"name":"a","x":` + nested(9996) + `}]},"comp":[[1]],"pool":[{"t":0}]}`,
	`{"graph":{"jobs":[{"name":"a","x":` + nested(9997) + `}]},"comp":[[1]],"pool":[{"t":0}]}`,
	// Structure: trailing bytes, stray commas, wrong container kinds.
	`{"graph":` + tinyGraph + `,` + tinyRest + `} x`,
	`{"graph":` + tinyGraph + `,` + tinyRest + `}{}`,
	` {"graph":` + tinyGraph + `,` + tinyRest + "}\n\t\r ",
	`{"graph":` + tinyGraph + `,` + tinyRest + `,}`,
	`{,"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2,],[3,4]],"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":[{"t":0},{"t":0}],"x":tru}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":[{"t":0},{"t":0}],"x":nulll}`,
	`{"graph":[],` + tinyRest + `}`,
	`{"graph":` + tinyGraph + `,"comp":{},"pool":[{"t":0},{"t":0}]}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":true}`,
	`{"graph":` + tinyGraph + `,"comp":[[1,2],[3,4]],"pool":[[]]}`,
	`{"options":[],"graph":` + tinyGraph + `,` + tinyRest + `}`,
	`[]`, `5`, `"s"`, ``, ` `, `{`, `{"a"}`, `{"a":}`, `{1:2}`,
}

func submissionSeeds(f *testing.F) [][]byte {
	f.Helper()
	seeds := corpus(f, "FuzzSerializeRoundTrip")
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, legacy)
	for _, s := range []*Submission{sampleSubmission(), sharedSubmission(), dataSubmission(f)} {
		enc, err := EncodeSubmission(s)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	for _, s := range hostileSubmissions {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzDecodeSubmissionParity holds DecodeSubmission to the decoder it
// replaced: on any bytes the two agree on accept or reject, and an
// accepted document yields the same Submission — deeply equal, and
// encoding to the same bytes.
func FuzzDecodeSubmissionParity(f *testing.F) {
	for _, seed := range submissionSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, gotErr := DecodeSubmission(doc, parityLimits)
		want, wantErr := oracleDecodeSubmission(doc, parityLimits)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject differs: decoder %v, oracle %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded values differ:\n got %+v\nwant %+v", got, want)
		}
		gotEnc, err := EncodeSubmission(got)
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, err := EncodeSubmission(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("re-encodings differ:\n got %s\nwant %s", gotEnc, wantEnc)
		}
	})
}

// FuzzDecodePartsParity is the same property for the embedded documents
// decoded on their own — dag.FromJSON, cost.Table, grid.Pool — and for
// DecodeGridSpec: every input is tried as each.
func FuzzDecodePartsParity(f *testing.F) {
	for _, s := range []string{
		tinyGraph, tinyPool, `[[1,2],[3,4]]`, `[{"t":0,"name":"r0"},{"t":5,"name":"r1"}]`,
		`{"v":2,"pool":` + tinyPool + `}`, `{"v":1,"pool":[{"t":0}],"pool":null}`,
		`{"v":3,"pool":[{"t":0}]}`, `{"V":1,"POOL":[{"t":0}]}`, `{"pool":[{"t":0}],"pool":5}`,
		`{"v":9,"name":"g","jobs":[{"name":"a"}]}`,
		`{"jobs":[{"name":"a"},{"name":"b"},{"name":"c"}],"edges":[{"from":"a","to":"c"},{"from":"a","to":"b"},{"from":"b","to":"c"},{"from":"a","to":"c"}]}`,
		`{"jobs":[{"name":"c"},{"name":"b"},{"name":"a"}],"edges":[{"from":"a","to":"c","data":1},{"from":"a","to":"b","data":2},{"from":"b","to":"c","data":3}]}`,
		`{"jobs":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}`,
		`{"jobs":[{"name":"a"},{"name":"a"}]}`, `{"jobs":[{"name":"a"}],"edges":[{"from":"a","to":"a"}]}`,
		`{"jobs":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","data":-1}]}`,
		`{"jobs":[{"name":"a"},{"name":"b"}],"edges":[{"from":"a","to":"b","file":"fé"}]} `,
		`{"jobs":[{"name":"a"}],"edges":[{"from":"a","to":"ghost"}]}`, `{"jobs":[]}`, `{}`, `null`, `[]`, `[[]]`, `[null]`,
		`[[1,2],[3]]`, `[[0]]`, `[[-1]]`, `[[1e308,1e-308]]`, ` [ [ 1 , 2 ] ] `, `[[1,2]]]`,
		`[{"t":-1}]`, `[{"t":1}]`, `[{"t":0,"link":"x"}]`, `{"links":{"":1},"resources":[{"t":0}]}`,
		`{"links":{"x":0},"resources":[{"t":0}]}`, `{"links":{"x":"1"},"resources":[{"t":0}]}`, `{"resources":null}`,
		"\t{\"resources\":[{\"t\":0,\"up\":1e999}]}", `{"links":[],"resources":[{"t":0}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		check := func(what string, got, want any, gotErr, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: accept/reject differs: decoder %v, oracle %v", what, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded values differ:\n got %+v\nwant %+v", what, got, want)
			}
		}
		g, gErr := dag.FromJSON(doc)
		og, ogErr := oracleGraph(doc)
		check("graph", g, og, gErr, ogErr)

		var tab cost.Table
		tErr := tab.UnmarshalJSON(doc)
		otab, otErr := oracleTable(doc)
		check("table", &tab, otab, tErr, otErr)

		var pool grid.Pool
		pErr := pool.UnmarshalJSON(doc)
		opool, opErr := oraclePool(doc)
		check("pool", &pool, opool, pErr, opErr)

		spec, sErr := DecodeGridSpec(doc, parityLimits)
		ospec, osErr := oracleDecodeGridSpec(doc, parityLimits)
		check("grid spec", spec, ospec, sErr, osErr)
	})
}

// FuzzDecodeReportParity holds DecodeReport to the json.Unmarshal decoder
// it replaced: the same accept or reject on any bytes — and so the same
// HTTP status — and a deeply equal Report when accepted.
func FuzzDecodeReportParity(f *testing.F) {
	if seed, err := EncodeReport(sampleReport()); err == nil {
		f.Add(seed)
	}
	for _, s := range []string{
		`{}`, `null`, `[]`, `7`, `not json`, `{"v":2,"events":[]}`, `{"v":2,"events":null}`, `{"v":2,"events":{}}`,
		`{"v":1,"events":[{"kind":"job-started","time":0}]} `, `{"v":1,"events":[{"kind":"job-started","time":0}]} x`,
		`{"V":1,"EVENTS":[{"KIND":"job-finished","Time":3,"jOb":1,"duration":3}]}`,
		`{"v":1,"events":[{"kind":"variance","time":1,"job":2,"duration":4,"extra":[{"a":null}]}],"more":"\u00e9"}`,
		`{"v":1,"events":[{"kind":"job-started","time":1,"job":1},{"kind":"job-started","time":2,"job":2}],"events":[{"time":5}]}`,
		`{"v":1,"events":[{"kind":"job-started","time":1}],"events":null}`, `{"v":1,"events":[null,{"kind":"resource-join","time":1,"resource":1}]}`,
		`{"v":1,"events":[{"kind":null,"time":null,"job":null}]}`, `{"v":1,"events":[{"kind":"job-started","time":0,"job":1.0}]}`,
		`{"v":1,"events":[{"kind":"job-started","time":0,"job":1e2}]}`, `{"v":1,"events":[{"kind":"job-started","time":1e999}]}`,
		`{"v":1,"events":[{"kind":"job-started","time":-0.0,"job":-0}]}`, `{"v":1,"events":[{"kind":7,"time":0}]}`,
		`{"v":1,"events":[{"kind":"job-\u0073tarted","time":01}]}`, `{"v":1,"events":[{"kind":"job-started","time":"0"}]}`,
		`{"v":1,"events":[7]}`, `{"v":1,"events":[[]]}`, `{"v":"1","events":[]}`, `{"v":1,"events":[{"kind":"job-started","time":0},]}`,
		`{"v":1,"events":[{"kind":"resource-leave","time":2,"resource":99999999999999999999}]}`, `{"v":1,"v":3,"events":[{"kind":"job-started","time":0}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, gotErr := DecodeReport(doc, 1000)
		want, wantErr := oracleDecodeReport(doc, 1000)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject differs: decoder %v, oracle %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded values differ:\n got %+v\nwant %+v", got, want)
		}
	})
}

// walFrames returns the payloads of a shard log's frames (4-byte length,
// 4-byte CRC, payload), without checking them: seeds, not replay.
func walFrames(f *testing.F, path string) [][]byte {
	f.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for len(data) >= 8 {
		n := int(binary.BigEndian.Uint32(data))
		if n > len(data)-8 {
			break
		}
		out = append(out, data[8:8+n])
		data = data[8+n:]
	}
	return out
}

// FuzzDecodeWALRecordParity holds DecodeWALRecord to the json.Unmarshal
// decoder it replaced: the same accept or reject on any bytes — so replay
// stops at the same record — and the same envelope, Data byte for byte
// (there a view of the input, here a copy). With a payload decoder, it
// holds it to DecodeWALRecord followed by that decoder on Data: the same
// record or error (torn), and where the payload was read in the walk, the
// same verdict (unusable or not) and value. Seeded with a daemon's own
// records (internal/server's full-state fixture) and the corners: repeated
// and case-folded keys, null members, numbers an LSN cannot hold.
func FuzzDecodeWALRecordParity(f *testing.F) {
	for _, shard := range []string{"shard-0", "shard-1"} {
		for _, p := range walFrames(f, filepath.Join("..", "server", "testdata", "wal-full-states", shard, "wal-00000000000000000001.log")) {
			if len(p) < 4096 {
				f.Add(p)
			}
		}
	}
	for _, s := range []string{
		`{}`, `null`, `[]`, `7`, `not json`, `{"v":2,"lsn":1,"kind":"state"}`, `{"v":2,"lsn":1,"kind":"state","data":null}`,
		`{"v":2,"lsn":1,"kind":"state","data":{"id":"wf-1","body":[1,2,{"a":"é"}]}} `, `{"v":2,"lsn":1,"kind":"state","data":{}} x`,
		`{"V":1,"LSN":7,"Kind":"grid","DATA":"x"}`, `{"v":1,"lsn":3,"kind":"a","kind":"b","data":1,"data":[2]}`, `{"v":3,"lsn":1,"kind":"k"}`,
		`{"v":2,"lsn":0,"kind":"k"}`, `{"v":2,"lsn":-1,"kind":"k"}`, `{"v":2,"lsn":1.0,"kind":"k"}`, `{"v":2,"lsn":1e2,"kind":"k"}`,
		`{"v":2,"lsn":18446744073709551615,"kind":"k"}`, `{"v":2,"lsn":18446744073709551616,"kind":"k"}`, `{"v":2,"lsn":"1","kind":"k"}`,
		`{"v":2,"lsn":null,"kind":null,"data":null}`, `{"v":2,"lsn":1,"kind":""}`, `{"v":2,"lsn":1,"kind":7}`, `{"v":2,"lsn":1,"kind":"k","data":}`,
		`{"v":2,"lsn":1,"kind":"k","data":{"a":01}}`, `{"v":2,"lsn":1,"kind":"k","data":"\ud800"}`, `{"v":2,"lsn":1,"kind":"k","data":"\x"}`,
		`{"v":2,"lsn":1,"kind":"kınd","extra":{"deep":` + nested(64) + `}}`, `{"v":2,"lsn":1,"kind":"k","data":` + nested(10001) + `}`,
		`{"v":-1,"lsn":1,"kind":"k"}`, `{"v":2,"lsn":1,"kınd":"k"}`, `{"v":2,"lsn":1,"kind":"k",}`, ` {"v" : 2 , "lsn" : 5 , "kind" : "k" , "data" : [ 1 ] } `,
		// The one-walk decode's corners: data before kind, a repeated data
		// key, a kind after data, a malformed payload, payloads of the
		// wrong shape or refused, a good payload in a bad envelope.
		`{"v":1,"lsn":2,"data":{"id":"a"},"kind":"k"}`, `{"v":1,"lsn":2,"kind":"k","data":{"id":"a"},"data":{"id":"b","n":[1]}}`,
		`{"v":1,"lsn":2,"kind":"k","data":{"id":"a"},"KIND":"raw"}`, `{"v":1,"lsn":2,"kind":"k","data":{"id":"a","n":[1,}}`,
		`{"v":1,"lsn":2,"kind":"k","data":{"id":7}}`, `{"v":1,"lsn":2,"kind":"k","data":{"id":"bad"},"data":{"id":"ok"}}`,
		`{"v":1,"lsn":0,"kind":"k","data":{"id":"a"}}`, `{"v":1,"lsn":2,"kind":"raw","data":[{"x":"\u00e9"}]} x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, _, gotErr := DecodeWALRecord(doc, nil)
		want, wantErr := oracleDecodeWALRecord(doc)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject differs: decoder %v, oracle %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded envelopes differ:\n got %+v\nwant %+v", got, want)
		}

		// With a payload decoder: the same record or the same error, and a
		// payload read in the walk is what the decoder makes of Data.
		var inWalk payloadProbe
		r, decoded, err := DecodeWALRecord(doc, func(kind string, sc *jsonscan.Scanner) {
			inWalk = payloadProbe{}
			inWalk.decode(kind, sc)
		})
		if (err == nil) != (gotErr == nil) || (err == nil && !reflect.DeepEqual(r, got)) {
			t.Fatalf("with a payload decoder: %+v, %v; without: %+v, %v", r, err, got, gotErr)
		}
		if !decoded {
			return // the caller decodes Data, which is DecodeWALRecord's
		}
		var fromData payloadProbe
		sc := jsonscan.New(got.Data)
		fromData.decode(got.Kind, sc)
		if err := sc.End(); err != nil {
			t.Fatalf("payload decoded in the walk, refused from Data: %v", err)
		}
		if !reflect.DeepEqual(inWalk, fromData) {
			t.Fatalf("payload in the walk %+v, from Data %+v", inWalk, fromData)
		}
	})
}

// payloadProbe is the payload decoder FuzzDecodeWALRecordParity holds the
// one-walk decode to: the kind picks the shape, so a payload read under
// the wrong kind or from the wrong bytes shows, and an ID of "bad" is
// refused without a syntax error.
type payloadProbe struct {
	Kind string
	ID   string
	N    []int
	Raw  []byte
}

func (p *payloadProbe) decode(kind string, sc *jsonscan.Scanner) {
	p.Kind = kind
	if kind == "raw" {
		p.Raw = append([]byte(nil), sc.Raw()...)
		return
	}
	sc.Object("id", &p.ID, "n", func() { p.N = jsonscan.Array(sc, p.N, func(x *int) { *x = sc.Int() }) })
	if p.ID == "bad" {
		sc.Fail(errors.New("refused"))
	}
}
