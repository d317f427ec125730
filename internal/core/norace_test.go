//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
)

const raceDetector = false

// TestWarmRunByteBudget: a warm S_Agg or C_Noise run of the flagship query
// on the 40-device fixture re-allocates no bulk memory, so its bytes stay
// just above the reading at GOMAXPROCS 1, 2 and 8 (69–79 and 100–113 KB;
// 440–600 KB without pools), least of five runs: a GC empties the pools.
func TestWarmRunByteBudget(t *testing.T) {
	f := newFixture(t, 40, nil)
	for kind, budget := range map[protocol.Kind]uint64{protocol.KindSAgg: 84_000, protocol.KindCNoise: 120_000} {
		least := ^uint64(0)
		for i := range 7 { // two runs warm the pools and the discovery cache
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := f.eng.Execute(context.Background(), Request{Querier: f.q, SQL: flagshipSQL, Kind: kind, QueryID: "warm"})
			runtime.ReadMemStats(&after)
			noErr(t, err)
			if i >= 2 {
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
		}
		if least > budget {
			t.Errorf("%v: a warm run allocates %d B, budget %d", kind, least, budget)
		}
	}
}
