package jsonscan

import (
	"encoding/json"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

// FuzzFloatMatchesStrconv: Float then End accepts exactly the documents
// json.Unmarshal accepts into a float64 (null aside: a decoder's store
// takes that before Float), and what it accepts has the bits
// strconv.ParseFloat gives the token.
func FuzzFloatMatchesStrconv(f *testing.F) {
	for _, s := range []string{
		`-0`, `0e99999`, `-0.0e-99999`, `4.9e-324`, `5e-324`, `2e-324`, `2.2250738585072011e-308`, `2.2250738585072014e-308`,
		`9007199254740993`, `9007199254740995`, `1.7976931348623157e308`, `1.7976931348623158e308`, `1e309`, `-1e309`,
		`12345678901234567890000`, `1234567890123456789.0000000`, `12345678901234567891`, `1.00000000000000000000001`,
		`1180591620717411434496`, `1180591620717411434497`, // 2^70 + 2^17, a tie, and past it by a dropped digit
		`3460994848693279641e-22`, `7598635088442326312e-23`, `4933907874904242158e-11`, // the low half carries
		"0." + strings.Repeat("0", 9999) + "1e10003", "1" + strings.Repeat("0", 10000) + "e-10000",
		`0.000000000000000000001234567890123456789012`, `1e348`, `1e-349`, `1e400`, `1e-400`, `1e99999999999999999999`,
		`1e-99999999999999999999`, `0.1`, `7.25`, `-100.5`, `12.345678901234567`, `-3.0e+2`, ` 7 `, `1.`, `-`, `01`, `1e`, `"1"`, `null`, `1 2`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var want float64
		wantErr := json.Unmarshal(doc, &want)
		s := New(doc)
		if s.Peek() == 'n' {
			return
		}
		from := s.pos
		got := s.Float()
		tok := string(doc[from:s.pos])
		if err := s.End(); (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: Float %v, json.Unmarshal %v", doc, err, wantErr)
		} else if err != nil {
			return
		}
		if f, _ := strconv.ParseFloat(tok, 64); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%q: Float %b, strconv %b", doc, got, f)
		}
	})
}

// TestEveryPowerOfTenRow converts mantissas of up to 19 digits against
// every row of the table, and the rows about it, and holds each result to
// strconv's bits; Float must be exact whether or not eiselLemire answers.
func TestEveryPowerOfTenRow(t *testing.T) {
	mants := []uint64{1, 7, 9007199254740993, 1234567890123456789, 9999999999999999999, 1e18, 4503599627370497}
	answered := 0
	for q := pow10Min - 2; q <= pow10Max+2; q++ {
		for _, m := range mants {
			tok := strconv.FormatUint(m, 10) + "e" + strconv.Itoa(q)
			want, wantErr := strconv.ParseFloat(tok, 64)
			s := New([]byte(tok))
			got := s.Float()
			if err := s.End(); (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Float %v (%v), strconv %v (%v)", tok, got, err, want, wantErr)
			}
			if f, ok := eiselLemire(m, q); ok {
				answered++
				if math.Float64bits(f) != math.Float64bits(want) {
					t.Fatalf("%s: eiselLemire %v, strconv %v", tok, f, want)
				}
			}
		}
	}
	// Rows whose products are normal floats answer nearly every mantissa.
	if least := 550 * len(mants); answered < least {
		t.Fatalf("eiselLemire answered %d conversions, want ≥ %d", answered, least)
	}
}

// TestPowerOfTenRowsAreExact holds each row to 10^q computed alone, with
// 4096-bit big.Float arithmetic, rounded down to 128 bits.
func TestPowerOfTenRowsAreExact(t *testing.T) {
	ten := new(big.Float).SetPrec(4096).SetInt64(10)
	for q := pow10Min; q <= pow10Max; q++ {
		x := new(big.Float).SetPrec(4096).SetInt64(1)
		for i := 0; i < q; i++ {
			x.Mul(x, ten)
		}
		for i := 0; i > q; i-- {
			x.Quo(x, ten)
		}
		m := new(big.Float).SetPrec(4096).SetMantExp(x, 128-x.MantExp(nil))
		z, _ := m.Int(nil) // truncates: rounded down
		lo := new(big.Int).And(z, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(z, 64).Uint64()
		if row := pow10[q-pow10Min]; row != [2]uint64{hi, lo} {
			t.Fatalf("10^%d: row %x, want %x", q, row, [2]uint64{hi, lo})
		}
	}
}

// TestFloatAcrossDigitRuns puts every run length from 1 to 24 digits on
// each side of the point, at the end of the input and before more of it,
// so that the cut after 19 significant digits falls at every place: in
// the integer part, in the fraction, after leading zeros, and not at all.
func TestFloatAcrossDigitRuns(t *testing.T) {
	const digits = "9876543210987654321098765"
	for a := 1; a < 25; a++ {
		for b := 0; b < 25; b++ {
			tok := digits[:a]
			if b > 0 {
				tok += "." + digits[25-b:]
			}
			for _, tok := range []string{tok, "-0.000" + digits[:a] + digits[25-b:], tok + "e-7"} {
				want, _ := strconv.ParseFloat(tok, 64)
				for _, tail := range []string{"", ",12345678"} {
					s := New([]byte(tok + tail))
					if got := s.Float(); s.Err() != nil || s.Rest() != len(tail) || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s%s: Float %v (%v, %d left), want %v", tok, tail, got, s.Err(), s.Rest(), want)
					}
				}
			}
		}
	}
}

func TestFloatDoesNotAllocate(t *testing.T) {
	doc := []byte(`12.345678901234567`)
	s := New(doc)
	if n := testing.AllocsPerRun(100, func() { s.Reset(doc); s.Float() }); n != 0 {
		t.Fatalf("Float allocates %v times per token", n)
	}
}

// tableSink keeps BenchmarkPowersOfTen's result alive.
var tableSink *[pow10Max - pow10Min + 1][2]uint64

// BenchmarkPowersOfTen times building the table, once per process start.
func BenchmarkPowersOfTen(b *testing.B) {
	for range b.N {
		tableSink = powersOfTen()
	}
}
