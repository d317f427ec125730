// Package rng is the one seeded generator behind every stream the engine
// owns: a device's fakes, a fault plan's draws, a run's shuffles, the SSI
// adversary's strike points and the enrolment draw. Its whole state is two
// words — a seed mixed with the query, and whose stream it is — so aiming
// it costs two stores where math/rand's own source rebuilds 607 words, and
// a stream per (device, query) is free to own. Every drawn value is a
// function of those two words, math/rand/v2's PCG and math/rand's
// derivations over a Source64, which the Go 1 promise freezes and the
// golden vectors pin. Standard library only: faultplan stays a leaf.
package rng

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Hash is the repository's one 32-bit FNV-1a: what streams, the SSI's
// stripes, the rollout waves, a compromised device's drop pattern and the
// histogram's unknown-value bucket key their bytes by.
func Hash[T ~string | ~[]byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Whose stream: a device's collection stream is its bare 32-bit Hash, and
// every other stream sets a tag above it, so no two kinds can meet even
// when the fault seed equals the engine's. Fault and Enrol are or-ed with
// the device's Hash; Run and Strike are a query's own.
const (
	Run    = 1 << 32        // connection order, shuffles, replacement draws
	Fault  = 0xfa17 << 32   // faultplan.Plan.For's five draws
	Enrol  = 0x5eed << 32   // Config.CompromisedFraction's enrolment draw
	Strike = 0xadc0de << 32 // ssi.Adversary's strike points
)

// Source is a math/rand.Source64 over PCG-DXSM. Aim re-points it without
// allocating.
type Source struct{ pcg randv2.PCG }

// New returns a Rand over a fresh source aimed at (seed, queryID, who).
func New(seed int64, queryID string, who uint64) *rand.Rand {
	s := &Source{}
	s.Aim(seed, queryID, who)
	return rand.New(s)
}

// Aim points the source at the start of a stream. The first word mixes
// the seed (the engine's or a fault plan's) with the query — the hash
// takes the high half, so seeds below 2^32 never collide across queries —
// and nothing folds the device into the query: who is the second word.
func (s *Source) Aim(seed int64, queryID string, who uint64) {
	s.pcg.Seed(uint64(seed)^uint64(Hash(queryID))<<32, who)
}

// Seed, Uint64 and Int63 implement rand.Source64; Seed(seed) is the
// stream (seed, "", 0).
func (s *Source) Seed(seed int64) { s.Aim(seed, "", 0) }
func (s *Source) Uint64() uint64  { return s.pcg.Uint64() }
func (s *Source) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// Float64 draws from [0, 1) without a Rand, for callers that must not
// allocate one.
func (s *Source) Float64() float64 { return float64(s.pcg.Uint64()>>11) / (1 << 53) }
