// Package jsonscan is a pull scanner over one JSON document held in
// memory. The wire decoders (internal/dag, cost, grid, data, wire) drive it
// member by member and build their model objects as they go, so a document
// is walked once instead of once per nested json.Unmarshaler.
//
// What it accepts and produces is encoding/json's, and the parity fuzz
// tests here and in internal/wire hold it and every decoder built on it to
// that: the same grammar (strict numbers, no raw control characters in
// strings, nesting up to 10 000 deep); struct fields matched by key
// exactly, else case-insensitively, other keys skipped; null leaving a
// field as it was; a repeated key decoded into what the earlier one left.
// A string without escapes or non-ASCII bytes is a view of the input; any
// other is unquoted by encoding/json itself. Numbers are converted by
// strconv on the token, never by hand.
//
// Errors are sticky: after the first, every method is a no-op returning a
// zero value and every walk ends, so a decoder checks Err once.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Scanner reads one JSON document. The zero value is not usable; call New.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	first bool // just past a container's opening bracket: no comma is due
	err   error
}

// New returns a scanner positioned before the document's value.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Err returns the first error met, or nil.
func (s *Scanner) Err() error { return s.err }

// Rest returns how many bytes of input are left unread.
func (s *Scanner) Rest() int { return len(s.data) - s.pos }

// Fail makes err the scanner's error, unless it has one or err is nil: a
// decoder's way to end the walk on an error of its own.
func (s *Scanner) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *Scanner) syntax(want string) {
	switch {
	case s.err != nil:
	case s.pos >= len(s.data):
		s.err = fmt.Errorf("json: unexpected end of input, want %s", want)
	default:
		s.err = fmt.Errorf("json: invalid character %q at offset %d, want %s", s.data[s.pos], s.pos, want)
	}
}

// Peek skips whitespace and returns the next byte without consuming it —
// at a value, the byte that tells its kind — or 0 at the end of input and
// after an error.
func (s *Scanner) Peek() byte {
	if s.err != nil {
		return 0
	}
	for ; s.pos < len(s.data); s.pos++ {
		if c := s.data[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// End fails unless only whitespace remains, and returns Err.
func (s *Scanner) End() error {
	if s.Peek(); s.err == nil && s.pos < len(s.data) {
		s.syntax("end of document")
	}
	return s.err
}

func (s *Scanner) begin(open byte, what string) {
	if s.Peek() != open {
		s.syntax(what)
		return
	}
	s.pos++
	if s.depth++; s.depth > maxDepth {
		s.err = fmt.Errorf("json: exceeded max depth at offset %d", s.pos)
	}
	s.first = true
}

// next steps past the comma due before the open container's next item, or
// consumes the closing bracket instead and reports false. (A bracket right
// after a comma is rejected by whatever reads the item.)
func (s *Scanner) next(closing byte) bool {
	c, first := s.Peek(), s.first
	s.first = false
	switch {
	case c == closing:
		s.pos++
		s.depth--
		return false
	case first:
		return s.err == nil
	case c == ',':
		s.pos++
		return true
	}
	s.syntax("',' or closing bracket")
	return false
}

// Members walks an object, calling member with each unquoted key and the
// scanner at that member's value, which member must consume. null is an
// object without members, as it is to json.Unmarshal into a struct.
func (s *Scanner) Members(member func(key []byte)) {
	if s.Null() {
		return
	}
	s.begin('{', "object")
	for s.next('}') {
		key := s.String()
		if s.Peek() != ':' {
			s.syntax("':'")
			return
		}
		s.pos++
		member(key)
	}
}

// Object walks an object as json.Unmarshal walks one into a struct. fields
// lists the struct's fields as pairs: a JSON key, then where its value
// goes — a *int, *uint8, *uint64, *float64, *string, *bool or *[]byte (see
// String), which null leaves as it is and a value of another kind fails;
// or a func(), called with the scanner at the value, null included, to
// consume it. A key selects the field it equals, else the first it equals
// under case folding; a member that selects none is skipped.
func (s *Scanner) Object(fields ...any) {
	s.Members(func(key []byte) {
		for i := 0; i < len(fields); i += 2 {
			if fields[i].(string) == string(key) {
				s.store(fields[i+1])
				return
			}
		}
		for i := 0; i < len(fields); i += 2 {
			if strings.EqualFold(fields[i].(string), string(key)) {
				s.store(fields[i+1])
				return
			}
		}
		s.Skip()
	})
}

func (s *Scanner) store(to any) {
	if decode, ok := to.(func()); ok {
		decode()
		return
	}
	if s.Null() {
		return
	}
	switch to := to.(type) {
	case *int:
		*to = s.Int()
	case *uint8:
		*to = uint8(s.Uint(8))
	case *uint64:
		*to = s.Uint(64)
	case *float64:
		*to = s.Float()
	case *string:
		*to = string(s.String())
	case *[]byte:
		*to = s.String()
	case *bool:
		if *to = s.Peek() == 't'; *to {
			s.literal("true")
		} else {
			s.literal("false")
		}
	default:
		// No %T of to: fmt would make every field target escape to the heap.
		panic("jsonscan: Object: a field's target is none of the types it decodes into")
	}
}

// Elems walks an array, calling elem with the scanner at each element,
// which elem must consume.
func (s *Scanner) Elems(elem func()) {
	s.begin('[', "array")
	for s.next(']') {
		elem()
	}
}

// Array decodes an array into dst as json.Unmarshal decodes one into a
// slice: null gives nil; elem decodes element i into dst[i], which is zero
// unless an earlier, longer decode of the same field (a repeated key) left
// something there; a null element leaves dst[i] alone; an empty array
// gives an empty, non-nil slice.
func Array[T any](s *Scanner, dst []T, elem func(*T)) []T {
	if s.Null() {
		return nil
	}
	n := 0
	s.Elems(func() {
		if n < cap(dst) {
			dst = dst[:n+1]
		} else {
			var zero T
			dst = append(dst[:cap(dst)], zero)
		}
		if !s.Null() {
			elem(&dst[n])
		}
		n++
	})
	if n == 0 {
		return []T{}
	}
	return dst[:n]
}

// Ptr decodes a value into *p as json.Unmarshal decodes one into a pointer
// field: null makes it nil; anything else goes, through decode, into what
// it points to — allocated if it was nil, else what an earlier decode of
// the same field left.
func Ptr[T any](s *Scanner, p **T, decode func(*T)) {
	if s.Null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	decode(*p)
}

// Null consumes the literal null if that is the next value and reports
// whether it did.
func (s *Scanner) Null() bool { return s.Peek() == 'n' && s.literal("null") }

func (s *Scanner) literal(word string) bool {
	if len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		s.syntax("a JSON value")
		return false
	}
	s.pos += len(word)
	return true
}

// scanString consumes a string token and returns the extent of its body
// and whether unquoting would leave that unchanged.
func (s *Scanner) scanString() (start, end int, plain bool) {
	if s.Peek() != '"' {
		s.syntax("string")
		return 0, 0, false
	}
	d, i := s.data, s.pos+1
	start, plain = i, true
	for ; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return start, i, plain
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case c < 0x20:
			s.pos = i
			s.syntax("string without control characters")
			return 0, 0, false
		case c >= 0x80:
			plain = false
		}
	}
	s.pos = len(d)
	s.syntax("closing '\"'")
	return 0, 0, false
}

// String consumes a string and returns its unquoted bytes, which the
// caller must not modify: a view of the input when the string is ASCII
// without escapes, what encoding/json makes of it otherwise.
func (s *Scanner) String() []byte {
	start, end, plain := s.scanString()
	if s.err != nil || plain {
		return s.data[start:end:end]
	}
	var out string
	if err := json.Unmarshal(s.data[start-1:end+1], &out); err != nil {
		s.err = fmt.Errorf("json: string at offset %d: %w", start-1, err)
	}
	return []byte(out)
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// number consumes a number token.
func (s *Scanner) number() []byte {
	s.Peek()
	d, i := s.data, s.pos
	if s.err != nil {
		return nil
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	from := i // each part of the grammar must move i past a digit
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		i = digits(d, i)
	}
	ok := i > from
	if ok && i < len(d) && d[i] == '.' {
		from = i + 1
		i = digits(d, from)
		ok = i > from
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		from = i
		i = digits(d, from)
		ok = i > from
	}
	tok := d[s.pos:i]
	s.pos = i
	if !ok {
		s.syntax("number")
		return nil
	}
	return tok
}

// Float consumes a number and converts it with strconv.ParseFloat, as
// encoding/json does; a number float64 cannot hold is an error.
func (s *Scanner) Float() float64 {
	tok := s.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("json: number %s does not fit a float64", tok)
	}
	return f
}

// Int consumes a number and converts it with strconv.ParseInt: a
// fraction, an exponent or an overflow is an error, as in encoding/json.
func (s *Scanner) Int() int {
	tok := s.number()
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("json: number %s is not an int", tok)
	}
	return int(n)
}

// Uint consumes a number and converts it with strconv.ParseUint to an
// unsigned integer of the given size: a sign, a fraction, an exponent or an
// overflow is an error, as in encoding/json.
func (s *Scanner) Uint(bits int) uint64 {
	tok := s.number()
	n, err := strconv.ParseUint(string(tok), 10, bits)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("json: number %s is not a uint%d", tok, bits)
	}
	return n
}

// Raw skips one value and returns its bytes.
func (s *Scanner) Raw() []byte {
	s.Peek()
	from := s.pos
	s.Skip()
	return s.data[from:s.pos]
}

// Skip consumes one value of any kind, checking its syntax.
func (s *Scanner) Skip() {
	switch s.Peek() {
	case '{':
		s.Members(func([]byte) { s.Skip() })
	case '[':
		s.Elems(s.Skip)
	case '"':
		// Only an escape can make a scanned string invalid JSON.
		if start, end, plain := s.scanString(); s.err == nil && !plain && !json.Valid(s.data[start-1:end+1]) {
			s.pos = start - 1
			s.syntax("string with valid escapes")
		}
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}
