package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/trustedcells/tcq/internal/rng"
)

// TestCollectOneRngCost: aiming the collector at a device allocates
// nothing, and a collector re-aimed after serving other devices hands out
// the stream a fresh generator would — nothing of the previous device's
// draws survives in the Rand, which is what lets a commit-point redo reuse
// the worker's collector.
func TestCollectOneRngCost(t *testing.T) {
	col := newCollector()
	if n := testing.AllocsPerRun(100, func() { col.deviceRng(7, "tds-00001", "q-000001") }); n != 0 {
		t.Errorf("aiming the collector at a device allocates %v objects, want 0", n)
	}
	for d := 0; d < 200; d++ {
		id, qid := fmt.Sprintf("tds-%05d", d), fmt.Sprintf("q-%06d", d%7)
		want := rng.New(7, qid, uint64(rng.Hash(id)))
		got := col.deviceRng(7, id, qid)
		for draw := 0; draw <= d%5; draw++ { // leave streams at different depths
			if w, g := want.Intn(50), got.Intn(50); g != w {
				t.Fatalf("%s %s draw %d: Intn = %d re-aimed, %d fresh", id, qid, draw, g, w)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); g != w {
				t.Fatalf("%s %s draw %d: NormFloat64 = %v re-aimed, %v fresh", id, qid, draw, g, w)
			}
		}
	}
}

// TestNeighbouringDeviceStreamsAreIndependent guards Rnf_Noise's uniform
// fake groups and C_Noise's fake measures — that is, the exposure the
// noise protocols promise — against a cheap seed that correlates: over the
// sequential IDs a fleet really has, the first Intn(G) of each device's
// stream must be uniform (chi-square) and unrelated to its neighbour's,
// and the NormFloat64 after it standard normal. Fixed seeds: the test is
// deterministic, the thresholds are 4 sigma.
func TestNeighbouringDeviceStreamsAreIndependent(t *testing.T) {
	const devices, queries = 500, 50
	n := float64(devices * queries)
	for _, seed := range []int64{0, 1, 7} {
		for _, g := range []int{7, 50} {
			col := newCollector()
			counts := make([]float64, g)
			var sum, sumSq, prev, lagged float64
			for q := 0; q < queries; q++ {
				qid := fmt.Sprintf("q-%06d", q)
				for d := 0; d < devices; d++ {
					r := col.deviceRng(seed, fmt.Sprintf("tds-%05d", d), qid)
					k := float64(r.Intn(g))
					counts[int(k)]++
					lagged += (k - float64(g-1)/2) * prev
					prev = k - float64(g-1)/2
					x := r.NormFloat64()
					sum += x
					sumSq += x * x
				}
			}
			chi := 0.0
			for _, c := range counts {
				chi += (c - n/float64(g)) * (c - n/float64(g)) / (n / float64(g))
			}
			df := float64(g - 1)
			if z := (chi - df) / math.Sqrt(2*df); z > 4 {
				t.Errorf("seed %d G=%d: first Intn chi-square %.1f on %v degrees (z = %.1f)", seed, g, chi, df, z)
			}
			// Each term is a product of two centred uniforms of variance
			// (g²-1)/12, so the sum of n has that variance as its deviation per sqrt(n).
			if z := lagged / math.Sqrt(n) / ((float64(g*g) - 1) / 12); math.Abs(z) > 4 {
				t.Errorf("seed %d G=%d: neighbouring devices' fake groups correlate (z = %.1f)", seed, g, z)
			}
			mean := sum / n
			if z := mean * math.Sqrt(n); math.Abs(z) > 4 {
				t.Errorf("seed %d G=%d: NormFloat64 mean %.4f (z = %.1f)", seed, g, mean, z)
			}
			// Var of the sample variance of a normal is 2/n.
			if z := (sumSq/n - mean*mean - 1) / math.Sqrt(2/n); math.Abs(z) > 4 {
				t.Errorf("seed %d G=%d: NormFloat64 variance %.4f (z = %.1f)", seed, g, sumSq/n-mean*mean, z)
			}
		}
	}
}
