package histogram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func uniformDist(g int, per int64) map[string]int64 {
	d := make(map[string]int64, g)
	for i := 0; i < g; i++ {
		d[fmt.Sprintf("g%04d", i)] = per
	}
	return d
}

func zipfDist(g int, n int64, seed int64) map[string]int64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(g-1))
	d := make(map[string]int64, g)
	for i := int64(0); i < n; i++ {
		d[fmt.Sprintf("g%04d", z.Uint64())]++
	}
	return d
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(uniformDist(4, 1), 0); err == nil {
		t.Error("numBuckets=0 accepted")
	}
	if _, err := Build(map[string]int64{}, 2); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := Build(map[string]int64{"a": 0, "b": -3}, 2); err == nil {
		t.Error("all-nonpositive distribution accepted")
	}
}

func TestBuildCoversAllValues(t *testing.T) {
	dist := zipfDist(50, 10000, 1)
	h := MustBuild(dist, 8)
	for k := range dist {
		id, ok := h.BucketOf(k)
		if !ok || id == "" {
			t.Errorf("value %q not mapped", k)
		}
	}
	var depth int64
	seen := map[string]bool{}
	for _, b := range h.Buckets() {
		depth += b.Depth
		for _, k := range b.Keys {
			if seen[k] {
				t.Errorf("value %q in two buckets", k)
			}
			seen[k] = true
		}
	}
	if depth != h.Total() {
		t.Errorf("bucket depths sum %d != total %d", depth, h.Total())
	}
}

func TestNearlyEquiDepthOnSkewedData(t *testing.T) {
	// A Zipf distribution is exactly what the histogram must flatten.
	dist := zipfDist(200, 100000, 2)
	h := MustBuild(dist, 10)
	if h.NumBuckets() != 10 {
		t.Fatalf("buckets = %d", h.NumBuckets())
	}
	// LPT guarantees max depth <= ideal + heaviest single value. A single
	// value cannot be split across buckets, so skew is bounded by
	// 1 + maxCount/ideal rather than a constant.
	var maxCount int64
	for _, c := range dist {
		if c > maxCount {
			maxCount = c
		}
	}
	ideal := float64(h.Total()) / float64(h.NumBuckets())
	if s := h.Skew(); s > 1+float64(maxCount)/ideal {
		t.Errorf("skew = %g exceeds LPT bound %g", s, 1+float64(maxCount)/ideal)
	}
	// Ignoring the un-splittable head value, the tail must be flat: the
	// shallowest bucket is within 25%% of ideal.
	var min int64 = 1 << 62
	for _, b := range h.Buckets() {
		if b.Depth < min {
			min = b.Depth
		}
	}
	if float64(min) < 0.75*ideal {
		t.Errorf("shallowest bucket %d far below ideal %g", min, ideal)
	}
}

func TestUniformDistributionIsFlat(t *testing.T) {
	h := MustBuild(uniformDist(100, 50), 10)
	if s := h.Skew(); s != 1.0 {
		t.Errorf("uniform input must be perfectly flat, skew = %g", s)
	}
}

func TestCollisionFactor(t *testing.T) {
	h := MustBuild(uniformDist(100, 1), 20)
	if cf := h.CollisionFactor(); cf != 5 {
		t.Errorf("h = %g, want 5", cf)
	}
	// M > G clamps to G buckets: one value per bucket, h = 1 (Det_Enc-like).
	h = MustBuild(uniformDist(10, 1), 50)
	if h.NumBuckets() != 10 {
		t.Errorf("buckets = %d, want 10", h.NumBuckets())
	}
	if cf := h.CollisionFactor(); cf != 1 {
		t.Errorf("h = %g, want 1", cf)
	}
	// Single bucket: h = G, all values collide.
	h = MustBuild(uniformDist(10, 1), 1)
	if cf := h.CollisionFactor(); cf != 10 {
		t.Errorf("h = %g, want 10", cf)
	}
}

func TestDeterministicBuild(t *testing.T) {
	dist := zipfDist(80, 20000, 3)
	h1 := MustBuild(dist, 7)
	h2 := MustBuild(dist, 7)
	if !reflect.DeepEqual(h1.Buckets(), h2.Buckets()) {
		t.Fatal("two builds over the same distribution differ — TDSs would disagree")
	}
}

func TestUnknownValueFallback(t *testing.T) {
	h := MustBuild(uniformDist(10, 5), 4)
	id1, ok := h.BucketOf("never-seen")
	if ok {
		t.Error("unknown value reported as known")
	}
	id2, _ := h.BucketOf("never-seen")
	if id1 != id2 {
		t.Error("fallback must be deterministic")
	}
	found := false
	for _, b := range h.Buckets() {
		if b.ID == id1 {
			found = true
		}
	}
	if !found {
		t.Error("fallback must map to a real bucket")
	}
}

// Property: every bucket depth is within one heaviest-value of the ideal
// depth (the LPT bound), for random distributions.
func TestLPTBoundQuick(t *testing.T) {
	f := func(counts []uint16, mRaw uint8) bool {
		dist := make(map[string]int64)
		var total, maxVal int64
		for i, c := range counts {
			v := int64(c%1000) + 1
			dist[fmt.Sprintf("k%d", i)] = v
			total += v
			if v > maxVal {
				maxVal = v
			}
		}
		if len(dist) == 0 {
			return true
		}
		m := int(mRaw%16) + 1
		h := MustBuild(dist, m)
		ideal := total / int64(h.NumBuckets())
		for _, b := range h.Buckets() {
			if b.Depth > ideal+maxVal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
