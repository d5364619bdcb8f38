package jsonscan

import (
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

// walk consumes one value the way a decoder would — strings unquoted,
// numbers converted, containers walked — and returns the strings met.
func walk(s *Scanner, out *[]string) {
	switch s.Peek() {
	case '{':
		s.Members(func(key []byte) {
			*out = append(*out, string(key))
			walk(s, out)
		})
	case '[':
		s.Elems(func() { walk(s, out) })
	case '"':
		*out = append(*out, string(s.String()))
	case 't', 'f':
		var b bool
		s.store(&b)
	case 'n':
		s.Null()
	default:
		s.number()
	}
}

// oracleStrings collects the keys and string values of a decoded
// document in document order — what walk collects.
func oracleStrings(dec *json.Decoder, out *[]string) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if s, ok := tok.(string); ok {
			*out = append(*out, s)
		}
	}
}

// FuzzGrammarMatchesEncodingJSON: the scanner accepts exactly the
// documents json.Valid accepts, whether it skips a value or walks it, and
// every string it unquotes is the string encoding/json unquotes.
func FuzzGrammarMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,2.5e-3,-0,true,false,null,"x\né\ud800"],"b":{}}`, `[]`, `0`, `-`, `01`, `1.`, `.5`, `1e`, `1e+`, `+1`,
		`"\x"`, `"\u12g4"`, "\"\x01\"", "\"\xff\"", `"unterminated`, `tru`, `nulll`, `[1,]`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`,
		`{1:2}`, `[1 2]`, ` [ 1 , 2 ] `, `[] x`, ``, "\x00", `{"a":1}{"b":2}`, `"😀"`, `[[[[]]]]`, `1E5`, `1e05`, `-0.0e-0`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000), strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		valid := json.Valid(doc)
		skip := New(doc)
		skip.Skip()
		if err := skip.End(); (err == nil) != valid {
			t.Fatalf("Skip: %v, json.Valid: %v", err, valid)
		}
		var got []string
		w := New(doc)
		walk(w, &got)
		if err := w.End(); (err == nil) != valid {
			t.Fatalf("walk: %v, json.Valid: %v", err, valid)
		}
		if !valid {
			return
		}
		var want []string
		dec := json.NewDecoder(strings.NewReader(string(doc)))
		dec.UseNumber() // or Token fails on a number float64 cannot hold
		if err := oracleStrings(dec, &want); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
			t.Fatalf("strings differ:\n got %q\nwant %q", got, want)
		}
	})
}

func TestObjectMatchesFieldsLikeEncodingJSON(t *testing.T) {
	var jobs, edges, link func()
	for key, want := range map[string]string{
		"jobs": "jobs", "JOBS": "jobs", "jobſ": "jobs", "lin\u212a": "link", "Edges": "edges",
		"job": "", "": "", "jobss": "", "jóbs": "",
	} {
		got := ""
		s := New([]byte(`{"` + key + `":[1,{"jobs":2}]}`))
		jobs, edges, link = func() { got = "jobs"; s.Skip() }, func() { got = "edges"; s.Skip() }, func() { got = "link"; s.Skip() }
		s.Object("jobs", jobs, "edges", edges, "link", link)
		if err := s.End(); err != nil || got != want {
			t.Errorf("key %q selects %q (%v), want %q", key, got, err, want)
		}
	}
}

func TestArrayKeepsEarlierElements(t *testing.T) {
	decode := func(doc string, dst []int) []int {
		s := New([]byte(doc))
		dst = Array(s, dst, func(v *int) { *v = s.Int() })
		if err := s.End(); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		return dst
	}
	a := decode(`[1,2,3,4,5]`, nil)
	a = decode(`[9,null]`, a)
	a = decode(`[null,null,null,null]`, a)
	if want := []int{9, 2, 3, 4}; !slices.Equal(a, want) {
		t.Fatalf("re-decoded %v, want %v", a, want)
	}
	if a = decode(`[]`, a); a == nil || cap(a) != 0 {
		t.Fatalf("empty array: %#v (cap %d)", a, cap(a))
	}
	if a = decode(`[null]`, a); a[0] != 0 {
		t.Fatalf("after an empty array: %v", a)
	}
	if a = decode(`null`, a); a != nil {
		t.Fatalf("null: %#v", a)
	}
}

// TestUintAndPtrMatchEncodingJSON: unsigned fields and pointer fields take
// and refuse what json.Unmarshal takes and refuses, and end up holding the
// same values, a repeated key decoding into what the earlier one left.
func TestUintAndPtrMatchEncodingJSON(t *testing.T) {
	type inner struct{ A, B int }
	type doc struct {
		N uint8
		L uint64
		P *inner
	}
	for _, in := range []string{
		`{"n":255,"l":18446744073709551615,"p":{"a":1}}`, `{"n":256}`, `{"n":-1}`, `{"n":-0}`, `{"n":1.0}`, `{"n":1e1}`, `{"n":"1"}`,
		`{"l":18446744073709551616}`, `{"l":-0}`, `{"l":00}`, `{"n":null,"l":null,"p":null}`, `{"N":7,"L":8,"P":{"A":2,"b":3}}`,
		`{"p":{"a":1},"p":{"b":2}}`, `{"p":{"a":1},"p":null}`, `{"p":null,"p":{"b":2}}`, `{"p":[1]}`, `{"p":7}`, `{"p":{"a":1}}}`,
	} {
		var want, got doc
		wantErr := json.Unmarshal([]byte(in), &want)
		s := New([]byte(in))
		s.Object("n", &got.N, "l", &got.L, "p", func() { Ptr(s, &got.P, func(p *inner) { s.Object("a", &p.A, "b", &p.B) }) })
		if err := s.End(); (err == nil) != (wantErr == nil) {
			t.Errorf("%s: scanner %v, json.Unmarshal %v", in, err, wantErr)
		} else if err == nil && (got.N != want.N || got.L != want.L || (got.P == nil) != (want.P == nil) || (got.P != nil && *got.P != *want.P)) {
			t.Errorf("%s: decoded %+v (p %+v), want %+v (p %+v)", in, got, got.P, want, want.P)
		}
	}
}
