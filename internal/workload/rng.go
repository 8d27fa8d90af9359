package workload

// rng is a deterministic xorshift64* generator. Workload generation never
// uses math/rand's global state or any wall clock, so every run of every
// experiment is reproducible bit-for-bit.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return unitFloat(r.next()) }

// unitFloat maps a 64-bit draw to a float64 in [0, 1) from its top 53 bits.
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
