package rng

import (
	"hash/fnv"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
)

var _ rand.Source64 = (*Source)(nil)

// TestGoldenVectors pins three streams: the two words each is seeded from
// and its first draws. Every engine observable that involves a draw —
// pinnedRunDigests in internal/core above all — is a function of these
// values, so a refactor of this package, or a toolchain that changed PCG or
// math/rand's derivations, fails here first and by name instead of
// re-pinning the engine silently.
func TestGoldenVectors(t *testing.T) {
	for _, v := range []struct {
		seed   int64
		query  string
		who    uint64
		hi, lo uint64  // the PCG's two seed words
		u64    uint64  // Rand.Uint64, first draw
		intn   int     // then Rand.Intn(1000)
		f64    float64 // then Rand.Float64
		norm   float64 // then Rand.NormFloat64
		srcF64 float64 // Source.Float64, first draw of the same stream
	}{
		{0, "", 0, 0x811c9dc500000000, 0,
			0x80cc4d734834d5b0, 162, 0.019888927226375298, 1.2543439608806575, 0.503117409367593},
		{7, "pinned", uint64(Hash("tds-00001")), 0x536fc08f00000007, 0xed74ed74,
			0x7f35bbd519eeef55, 618, 0.33162869876819145, 0.732895369901847, 0.49691366150539873},
		{0x0123456789abcdef, "q-000042", Fault | 0xdeadbeef, 0xa469d75289abcdef, 0xfa17deadbeef,
			0x0e0285dffb98901b, 724, 0.360249985997632, 1.1632499960137395, 0.05472599714593884},
	} {
		var s Source
		s.Aim(v.seed, v.query, v.who)
		if s.pcg != *randv2.NewPCG(v.hi, v.lo) {
			t.Errorf("(%#x, %q, %#x): not seeded from (%#x, %#x)", v.seed, v.query, v.who, v.hi, v.lo)
		}
		if got := s.Float64(); got != v.srcF64 {
			t.Errorf("(%#x, %q, %#x): Source.Float64 = %v, want %v", v.seed, v.query, v.who, got, v.srcF64)
		}
		r := New(v.seed, v.query, v.who)
		if got := r.Uint64(); got != v.u64 {
			t.Errorf("(%#x, %q, %#x): Uint64 = %#x, want %#x", v.seed, v.query, v.who, got, v.u64)
		}
		if got := r.Intn(1000); got != v.intn {
			t.Errorf("(%#x, %q, %#x): Intn(1000) = %d, want %d", v.seed, v.query, v.who, got, v.intn)
		}
		if got := r.Float64(); got != v.f64 {
			t.Errorf("(%#x, %q, %#x): Float64 = %v, want %v", v.seed, v.query, v.who, got, v.f64)
		}
		if got := r.NormFloat64(); got != v.norm {
			t.Errorf("(%#x, %q, %#x): NormFloat64 = %v, want %v", v.seed, v.query, v.who, got, v.norm)
		}
	}
}

// TestHashIsFNV1a holds Hash to the standard library's FNV-1a: the SSI's
// stripe selection and every stream's words rest on its values.
func TestHashIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "tds-00001", "q-000042", "tenant-a/q-7", "\x00\xff"} {
		ref := fnv.New32a()
		ref.Write([]byte(s))
		if got, want := Hash(s), ref.Sum32(); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestSourceAllocBudget: aiming a source and drawing from it allocate
// nothing — a fault plan does both once per device per churned query.
func TestSourceAllocBudget(t *testing.T) {
	var s Source
	var sink float64
	if n := testing.AllocsPerRun(1000, func() {
		s.Aim(21, "q-000007", Fault|uint64(Hash("tds-00042")))
		sink += s.Float64()
	}); n != 0 {
		t.Errorf("Aim + Float64 allocate %v objects, want 0", n)
	}
	if sink < 0 || sink >= 1001 {
		t.Errorf("Float64 left [0, 1): sum of 1001 draws is %v", sink)
	}
}
