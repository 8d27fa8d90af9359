package workload

import "math"

// An allocation size is roundSize(mean·2^y), with y drawn uniformly from
// [-SizeSpread, SizeSpread). drawnSize gives exactly the size that
// math.Pow(2, y) gives, without calling math.Pow on almost every draw:
// roundSize never decreases as its argument grows, so it is constant on any
// interval that holds no step, and an estimate of 2^y whose error is far
// below sizeSlack pins the size whenever the interval of that width around
// it holds none.

// roundSize clamps s to [16 B, 4 MiB] and rounds it up to the granule. It
// never decreases as s grows.
func roundSize(s float64) uint64 {
	if s < 16 {
		s = 16
	}
	if s > 4<<20 {
		s = 4 << 20
	}
	return (uint64(s) + 15) &^ 15
}

// sizeSlack is the relative margin around the estimate of mean·2^y inside
// which drawnSize requires roundSize to be constant. exp2Estimate is within
// 5e-16 of 2^y (see its comment), math.Pow(2, y) within a few units in the
// last place (about 2.2e-16 each), and each product with the mean rounds
// once more, so the value math.Pow yields lies within about 2e-15 of the
// estimate: the slack is 500 times that. A draw of size s lies that near a
// step with a chance of about 2·sizeSlack·s/16, one in two million at
// 4 MiB, and then costs one math.Pow call.
const sizeSlack = 1e-12

// exp2Table[j] is 2^(j/64).
var exp2Table = func() (t [64]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / 64)
	}
	return t
}()

// exp2Estimate returns 2^y for |y| < 64. It splits 64y into the nearest
// integer n = 64k + j and a rest r with |r| ≤ 1/2, and multiplies an exact
// 2^k, the table's 2^(j/64) and e^x for x = r·ln2/64, |x| < 0.0055, from a
// degree-5 Taylor series. The series' truncation error is below
// x^6/720 < 4e-17; the table entry (under one unit in the last place), the
// series' last addition and the final product (half a unit each) bring the
// relative error to under 5e-16.
func exp2Estimate(y float64) float64 {
	t := y * 64
	n := int(t+4096.5) - 4096 // floor(t+0.5) for |t| < 4096
	x := (t - float64(n)) * (math.Ln2 / 64)
	ex := 1 + x*(1+x*(1.0/2+x*(1.0/6+x*(1.0/24+x*(1.0/120)))))
	pow2k := math.Float64frombits(uint64(n>>6+1023) << 52)
	return pow2k * exp2Table[n&63] * ex
}

// estimatedSize returns roundSize(mean·2^y) from exp2Estimate, and false
// when that cannot be told from the estimate: y lies outside its domain, or
// the estimate lies within sizeSlack of a step of roundSize.
func estimatedSize(mean, y float64) (uint64, bool) {
	if !(y > -64 && y < 64) {
		return 0, false
	}
	s := mean * exp2Estimate(y)
	lo := roundSize(s * (1 - sizeSlack))
	return lo, lo == roundSize(s*(1+sizeSlack))
}

// drawnSize returns roundSize(mean·math.Pow(2, y)), calling math.Pow only
// when estimatedSize cannot tell the size.
func drawnSize(mean, y float64) uint64 {
	if size, ok := estimatedSize(mean, y); ok {
		return size
	}
	return roundSize(mean * math.Pow(2, y))
}
