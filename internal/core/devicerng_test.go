package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/tds"
)

// TestLazySourceMatchesStdlib: a Rand over the lazy source must hand out
// exactly the streams of rand.New(rand.NewSource(seed)) — through every
// draw tds.Collect makes — both from a source built fresh for the seed and
// from a collector re-aimed at it after serving other devices.
func TestLazySourceMatchesStdlib(t *testing.T) {
	col := newCollector()
	for i := int64(0); i < 1000; i++ {
		seed := i*2654435761 - 500
		want := rand.New(rand.NewSource(seed))
		fresh := rand.New(&lazySource{seed: seed})
		reused := col.deviceRng(seed, "", "") // the empty IDs hash to equal values and cancel
		for draw := 0; draw < 24; draw++ {
			switch draw % 4 {
			case 0:
				n := 1 + draw*97
				if w, f, r := want.Intn(n), fresh.Intn(n), reused.Intn(n); f != w || r != w {
					t.Fatalf("seed %d draw %d: Intn(%d) = %d fresh, %d reused, want %d", seed, draw, n, f, r, w)
				}
			case 1:
				if w, f, r := want.Float64(), fresh.Float64(), reused.Float64(); f != w || r != w {
					t.Fatalf("seed %d draw %d: Float64 = %v fresh, %v reused, want %v", seed, draw, f, r, w)
				}
			case 2:
				if w, f, r := want.NormFloat64(), fresh.NormFloat64(), reused.NormFloat64(); f != w || r != w {
					t.Fatalf("seed %d draw %d: NormFloat64 = %v fresh, %v reused, want %v", seed, draw, f, r, w)
				}
			case 3:
				if w, f, r := want.Uint64(), fresh.Uint64(), reused.Uint64(); f != w || r != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d fresh, %d reused, want %d", seed, draw, f, r, w)
				}
			}
		}
	}
}

// TestCollectOneRngCost: under S_Agg a device draws nothing, so its
// collection step must not build a generator at all — 4.9 KB and ~11 µs
// per device per query otherwise — and aiming the collector at a device
// allocates nothing. Under C_Noise the stream is drawn from, and the
// collector builds its generator once and reseeds it from then on.
func TestCollectOneRngCost(t *testing.T) {
	f := newFixture(t, 8, nil)
	now := time.Unix(1700000000, 0)
	collectAll := func(col *collector, kind protocol.Kind, cfg tds.CollectConfig) {
		t.Helper()
		post, err := f.q.BuildPost(f.eng.nextQueryID(), flagshipSQL, kind, protocol.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.eng.fleet {
			if _, _, err := f.eng.collectOne(col, d, post, cfg, now); err != nil {
				t.Fatal(err)
			}
		}
	}

	col := newCollector()
	collectAll(col, protocol.KindSAgg, tds.CollectConfig{})
	if col.src.src != nil {
		t.Error("an S_Agg collectOne built the generator it never draws from")
	}
	if n := testing.AllocsPerRun(100, func() { col.deviceRng(7, "tds-00001", "q-000001") }); n != 0 {
		t.Errorf("aiming the collector at a device allocates %v objects, want 0", n)
	}

	disc, err := f.eng.discoverDistribution(context.Background(), f.q, sqlparse.MustParse(flagshipSQL))
	if err != nil {
		t.Fatal(err)
	}
	collectAll(col, protocol.KindCNoise, tds.CollectConfig{Domain: disc.domain})
	built := col.src.src
	if built == nil {
		t.Fatal("a C_Noise collectOne drew fakes without building the generator")
	}
	collectAll(col, protocol.KindCNoise, tds.CollectConfig{Domain: disc.domain})
	if col.src.src != built {
		t.Error("the collector rebuilt its generator instead of reseeding it")
	}
}
