package core

import (
	"math/rand"

	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// lazySource is a math/rand source that postpones the generator's seeding
// — a 607-word lagged-Fibonacci state, ~11 µs and 4.9 KB — to the first
// draw. tds.Collect only draws for fake tuples and tagged dummies, so
// under Basic and S_Agg a device's stream is never consumed and never
// built; a stream that is consumed is bit-identical to
// rand.New(rand.NewSource(seed)), because that is what it becomes. It
// implements Source64 like the stdlib source does: a Rand over a plain
// Source composes Uint64 differently and would diverge.
type lazySource struct {
	seed   int64
	src    rand.Source64 // the real generator; nil until the first draw ever
	seeded bool          // src currently carries seed
}

// Seed re-aims the source at a new stream without building it.
func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }

func (s *lazySource) real() rand.Source64 {
	if !s.seeded {
		if s.src == nil {
			s.src = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.src.Seed(s.seed) // same stream as a fresh source, state reused
		}
		s.seeded = true
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.real().Int63() }
func (s *lazySource) Uint64() uint64 { return s.real().Uint64() }

// collector is what one collection worker brings to every Collect it
// runs: an arena the ciphertexts are carved from, and one RNG re-aimed at
// each device's stream in turn. Neither is safe for concurrent use; the
// walk gives each worker its own.
type collector struct {
	arena tdscrypto.Arena
	src   lazySource
	rng   *rand.Rand
	last  int // tuples of the worker's previous Collect
}

func newCollector() *collector {
	c := &collector{}
	c.rng = rand.New(&c.src)
	return c
}

// deviceRng aims the collector's RNG at one device's collection stream.
// The seed depends only on (engine seed, device ID, query ID) — never on
// connection order, worker or wall time — which is what makes a
// speculative Collect safe to redo.
func (c *collector) deviceRng(seed int64, deviceID, queryID string) *rand.Rand {
	c.rng.Seed(seed ^ int64(hashString(deviceID)) ^ int64(hashString(queryID)))
	return c.rng
}
