package workload

import (
	"math"
	"testing"
)

// sizeDrawSeeds are FuzzSizeDraw's seed corpus. The fallback seeds put
// mean·2^y on a step of roundSize (17 B rounds to 32 B, just under it to
// 16 B), so the estimate cannot tell the size and math.Pow decides it.
var sizeDrawSeeds = []struct {
	mean, spread float64
	draw         uint64
	fallback     bool
}{
	{mean: 17, spread: 1, draw: 1 << 63, fallback: true},  // y = 0
	{mean: 8.5, spread: 2, draw: 3 << 62, fallback: true}, // y = 1
	{mean: 17 / math.Pow(2, drawY(0x5DEECE66D2F1A7B3, 1.2)), spread: 1.2, draw: 0x5DEECE66D2F1A7B3, fallback: true},
	{mean: 1024, spread: 1.5, draw: 0x9E3779B97F4A7C15},
	{mean: 1, spread: 8, draw: 0},                    // y = -8: clamped to 16 B
	{mean: 8 << 20, spread: 8, draw: math.MaxUint64}, // y → 8: clamped to 4 MiB
	{mean: 3276.8, spread: 0.5, draw: 0x0123456789ABCDEF},
}

// drawY maps a draw to y as the planter does.
func drawY(draw uint64, spread float64) float64 { return (unitFloat(draw)*2 - 1) * spread }

func TestSizeDrawSeeds(t *testing.T) {
	for _, sd := range sizeDrawSeeds {
		y := drawY(sd.draw, sd.spread)
		if _, ok := estimatedSize(sd.mean, y); ok == sd.fallback {
			t.Errorf("mean %v, y %v: estimate decides the size %v, want %v", sd.mean, y, ok, !sd.fallback)
		}
		if got, want := drawnSize(sd.mean, y), roundSize(sd.mean*math.Pow(2, y)); got != want {
			t.Errorf("mean %v, y %v: drawnSize %d, math.Pow gives %d", sd.mean, y, got, want)
		}
	}
}

// FuzzSizeDraw checks that drawnSize gives the size math.Pow gives, for a
// mean in [1 B, 8 MiB], a spread in (0, 8] and any 64-bit draw:
//
//	go test -run '^$' -fuzz FuzzSizeDraw -fuzztime 20s ./internal/workload
func FuzzSizeDraw(f *testing.F) {
	for _, sd := range sizeDrawSeeds {
		f.Add(sd.mean, sd.spread, sd.draw)
	}
	f.Fuzz(func(t *testing.T, mean, spread float64, draw uint64) {
		if !(mean >= 1 && mean <= 8<<20 && spread > 0 && spread <= 8) {
			return
		}
		y := drawY(draw, spread)
		if got, want := drawnSize(mean, y), roundSize(mean*math.Pow(2, y)); got != want {
			t.Errorf("mean %v, spread %v, y %v: drawnSize %d, math.Pow gives %d", mean, spread, y, got, want)
		}
	})
}
