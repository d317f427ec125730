package core

import (
	"math/rand"

	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// collector is what one collection worker brings to every Collect it
// runs: an arena the ciphertexts are carved from, the scratch it scans
// and assembles plaintexts in, and one RNG aimed at each device's stream
// in turn. None is safe for concurrent use; the walk gives each worker
// its own.
type collector struct {
	arena   tdscrypto.Arena
	scratch tds.Scratch
	src     rng.Source
	rng     *rand.Rand // over src
	last    int        // tuples of the worker's previous Collect
}

func newCollector() *collector {
	c := &collector{}
	c.rng = rand.New(&c.src)
	return c
}

// deviceRng aims the collector's RNG at one device's collection stream.
// The stream depends only on (engine seed, query ID, device ID) — never on
// connection order, worker or wall time — which is what makes a
// speculative Collect safe to redo. Aiming is two stores, so a device
// that draws nothing (Basic, S_Agg) pays nothing for owning a stream.
func (c *collector) deviceRng(seed int64, deviceID, queryID string) *rand.Rand {
	c.src.Aim(seed, queryID, uint64(rng.Hash(deviceID)))
	return c.rng
}
