package jsonscan

import (
	"math"
	"math/big"
	"math/bits"
)

// pow10[q-pow10Min] is 10^q as a 128-bit mantissa {hi, lo}, top bit set,
// rounded down: Eisel–Lemire's table, over strconv's range of exponents.
const pow10Min, pow10Max = -348, 347

var pow10 = powersOfTen()

// powersOfTen takes the top 128 bits of exact math/big integers (2^q only
// moves the binary exponent): 5^q for q ≥ 0; for q < 0, ⌊2^937 / 5^-q⌋,
// stepping by 5^27, the largest power of 5 in a word, and taking the rows
// between from x cut to 192 bits, since ⌊⌊x/a⌋/b⌋ = ⌊x/ab⌋.
func powersOfTen() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	var top, rem, cut, y, d big.Int
	row := func(q int, x *big.Int) {
		top.Lsh(top.Rsh(x, uint(max(x.BitLen()-128, 0))), uint(max(128-x.BitLen(), 0)))
		t[q-pow10Min][1] = top.Uint64() // lo first: Rsh reuses top
		t[q-pow10Min][0] = top.Rsh(&top, 64).Uint64()
	}
	x := big.NewInt(1)
	for q := 0; q <= pow10Max; q++ {
		row(q, x)
		x.Mul(x, d.SetUint64(5))
	}
	x.Lsh(x.SetUint64(1), 128+809) // 5^-pow10Min has 809 bits
	for n := 0; n < -pow10Min; n += 27 {
		cut.Rsh(x, uint(max(x.BitLen()-192, 0)))
		p := uint64(1)
		for j := 1; j <= 27 && n+j <= -pow10Min; j++ {
			p *= 5
			y.QuoRem(&cut, d.SetUint64(p), &rem)
			row(-n-j, &y)
		}
		x.QuoRem(x, d.SetUint64(p), &rem)
	}
	return &t
}

// eiselLemire converts mant × 10^exp to the nearest float64, or reports false
// past the table, on a rounding 128 bits cannot decide, or off the normal
// range (Lemire, "Number Parsing at a Gigabyte per Second", 2021). Exact
// decimals such as 7.25, which the table leaves undecided, divide (Clinger).
func eiselLemire(mant uint64, exp int) (float64, bool) {
	if mant < 1<<53 && -22 <= exp && exp <= 0 {
		return float64(mant) / math.Pow10(-exp), true
	}
	if mant == 0 || exp < pow10Min || exp > pow10Max {
		return 0, mant == 0 // 0 at any exponent
	}
	// Normalise mant; ⌊log2 10 × exp⌋ is 217706·exp >> 16 over the range.
	lz := bits.LeadingZeros64(mant)
	mant <<= lz
	e2 := uint64(217706*exp>>16+64+1023) - uint64(lz)
	p := &pow10[exp-pow10Min]
	hi, lo := bits.Mul64(mant, p[0])
	if hi&0x1ff == 0x1ff && lo+mant < mant {
		// The 9 bits below the result may carry: widen to the lower half.
		yhi, ylo := bits.Mul64(mant, p[1])
		mlo, carry := bits.Add64(lo, yhi, 0)
		if (hi+carry)&0x1ff == 0x1ff && mlo+1 == 0 && ylo+mant < mant {
			return 0, false
		}
		hi, lo = hi+carry, mlo
	}
	top := hi >> 63
	m := hi >> (top + 9) // 54 bits: the result and one rounding bit
	e2 -= 1 ^ top
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false // a tie the truncated table cannot break
	}
	if m = (m + m&1) >> 1; m>>53 > 0 {
		m >>= 1
		e2++
	}
	if e2-1 >= 0x7ff-1 {
		return 0, false // subnormal, zero, infinite
	}
	return math.Float64frombits(e2<<52 | m&(1<<52-1)), true
}
