// The weakly malicious SSI of the upgraded threat model: an Adversary
// wraps the honest implementation and injects scripted protocol
// violations — dropped, duplicated, equivocated or replayed ciphertext,
// forged coverage claims — at strike points drawn deterministically from
// (seed, query ID). It models precisely what tamper-resistant hardware
// cannot prevent: the infrastructure between the devices misusing the
// ciphertext entrusted to it. Everything it does is within the SSI's
// powers (it never needs a key), which is what makes the engine-side
// commitment verification the right defense.
package ssi

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/rng"
)

// Adversary is a Service that misbehaves on schedule. One Adversary
// serves one query: the engine wraps the shared honest SSI per run, so
// strike state never leaks across queries. Deterministic for a fixed
// (seed, query ID) at any worker count: deposits are struck by commit
// order and partition builds by build order, both of which the engine
// already keeps worker-count-independent.
type Adversary struct {
	// Service is the honest implementation: the adversary follows the
	// protocol wherever no attack is scripted, so every method it does not
	// override below is the inner one — DepositEnvelope too, as the engine
	// only sends batches.
	Service
	script *faultplan.SSIScript

	mu        sync.Mutex
	rng       *rand.Rand
	armed     map[faultplan.SSIMisbehavior]bool
	forgeAt   int                    // 1-based committed-envelope index to strike
	envelopes int                    // envelopes forwarded so far, commit order
	builds    int                    // partition builds seen
	prev      [][]protocol.WireTuple // stale stash: the previous honest build
	strikes   []string               // fired attacks, for reports and tests
}

var _ Service = (*Adversary)(nil)

// NewAdversary arms the scripted behaviors against one query. seed is the
// fault plan's; strike points depend only on (seed, queryID). inner is any
// Service; the adversary only ever touches its own query's state through
// the interface.
func NewAdversary(inner Service, script *faultplan.SSIScript, seed int64, queryID string) *Adversary {
	a := &Adversary{Service: inner, script: script, rng: rng.New(seed, queryID, rng.Strike),
		armed: make(map[faultplan.SSIMisbehavior]bool)}
	for _, b := range script.Behaviors {
		a.armed[b] = true
	}
	// Fixed draw order: the forge strike point is drawn whether or not the
	// behavior is scripted, so adding an attack never reshuffles another's.
	a.forgeAt = 1 + a.rng.Intn(3)
	return a
}

// fired logs one strike and disarms the behavior unless the script is
// persistent. The caller holds a.mu.
func (a *Adversary) fired(b faultplan.SSIMisbehavior, at string) {
	a.strikes = append(a.strikes, fmt.Sprintf("%s@%s", b, at))
	if !a.script.Persistent {
		a.armed[b] = false
	}
}

// strikeForge decides whether the next forwarded envelope is the forged
// one. The caller holds a.mu.
func (a *Adversary) strikeForge() bool {
	if !a.armed[faultplan.SSIForgeCoverage] {
		return false
	}
	a.envelopes++
	if a.script.Persistent {
		return a.envelopes >= a.forgeAt
	}
	return a.envelopes == a.forgeAt
}

// DepositEnvelopeBatch forwards a committed run of envelopes, forging
// coverage at the struck index (strike indices advance in batch order):
// the tuples are discarded before they reach storage while the device's
// claimed acceptance is reported upstream in full. The commitment rides
// along untouched — the adversary cannot rewrite it without k2, which is
// exactly how the verifier catches the forgery.
func (a *Adversary) DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) ([]DepositOutcome, int, bool, error) {
	fwd := make([]*protocol.Deposit, len(deps))
	claims := make([]int, len(deps))
	for i, dep := range deps {
		fwd[i], claims[i] = a.maybeForge(dep)
	}
	out, doneAt, done, err := a.Service.DepositEnvelopeBatch(id, fwd, now)
	if err != nil {
		return out, doneAt, done, err
	}
	for i := range out {
		if claims[i] >= 0 && out[i].Err == nil {
			out[i].Accepted = claims[i]
		}
	}
	return out, doneAt, done, nil
}

// maybeForge substitutes an empty twin for a struck envelope and returns
// the coverage the adversary will claim for it (-1 = honest pass-through).
func (a *Adversary) maybeForge(dep *protocol.Deposit) (*protocol.Deposit, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.strikeForge() {
		return dep, -1
	}
	twin := protocol.NewDeposit(dep.QueryID, dep.DeviceID, dep.Attempt, dep.Epoch, nil)
	twin.Commit = dep.Commit
	a.fired(faultplan.SSIForgeCoverage, fmt.Sprintf("envelope-%d", a.envelopes))
	return twin, len(dep.Tuples)
}

// PartitionRandom builds honestly, then tampers with the copy it hands
// out. The honest build is stashed both at the inner SSI (so the engine's
// quarantine-and-retry gets a clean re-issue) and as the adversary's own
// stale material for later replay.
func (a *Adversary) PartitionRandom(id string, tuples []protocol.WireTuple, perPartition int, rng *rand.Rand) [][]protocol.WireTuple {
	return a.tampered(id, a.Service.PartitionRandom(id, tuples, perPartition, rng))
}

// PartitionByTag mirrors PartitionRandom for the tag-grouped protocols.
func (a *Adversary) PartitionByTag(id string, tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple {
	return a.tampered(id, a.Service.PartitionByTag(id, tuples, maxPerPartition))
}

// StreamBuild is a partition build like any other: built honestly by the
// inner SSI (which stashes it for the quarantine retry), then tampered on
// the way out. The positions pass through as built: a tampered build
// no longer matches them.
func (a *Adversary) StreamBuild(id string, perPartition int) ([][]protocol.WireTuple, []int32) {
	parts, pos := a.Service.StreamBuild(id, perPartition)
	return a.tampered(id, parts), pos
}

// Repartition re-issues the inner SSI's honest stash — and, when the
// script is persistent, tampers with it again: the degradation path.
func (a *Adversary) Repartition(id string) ([][]protocol.WireTuple, []int32) {
	parts, pos := a.Service.Repartition(id)
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tamperLocked(parts, fmt.Sprintf("rebuild-%d", a.builds)), pos
}

// tampered advances the build counter, applies the armed partition
// attacks, and rotates the stale stash.
func (a *Adversary) tampered(id string, honest [][]protocol.WireTuple) [][]protocol.WireTuple {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.builds++
	out := a.tamperLocked(honest, fmt.Sprintf("build-%d", a.builds))
	a.prev = viewBuild(honest)
	return out
}

// tamperLocked applies every armed partition attack that finds an
// opportunity in parts. Attacks rebuild the partitions they touch instead
// of mutating them, so the inner SSI's stash (and any aliased slice) stays
// honest. The caller holds a.mu.
func (a *Adversary) tamperLocked(parts [][]protocol.WireTuple, at string) [][]protocol.WireTuple {
	for _, b := range faultplan.SSIMisbehaviors() {
		if !a.armed[b] {
			continue
		}
		switch b {
		case faultplan.SSIDropTuple:
			if p, i, ok := a.pickTuple(parts); ok {
				part := append([]protocol.WireTuple(nil), parts[p][:i]...)
				parts = replacePart(parts, p, append(part, parts[p][i+1:]...))
				a.fired(b, at)
			}
		case faultplan.SSIDuplicateTuple:
			if p, i, ok := a.pickTuple(parts); ok {
				part := append([]protocol.WireTuple(nil), parts[p]...)
				parts = replacePart(parts, p, append(part, parts[p][i]))
				a.fired(b, at)
			}
		case faultplan.SSIEquivocatePartitioning:
			if p, i, ok := a.pickTuple(parts); ok {
				w := parts[p][i]
				if len(parts) > 1 {
					q := a.rng.Intn(len(parts) - 1)
					if q >= p {
						q++
					}
					parts = replacePart(parts, q, append(append([]protocol.WireTuple(nil), parts[q]...), w))
				} else {
					parts = append(viewBuild(parts), []protocol.WireTuple{w})
				}
				a.fired(b, at)
			}
		case faultplan.SSIReplayStalePartition:
			if len(a.prev) > 0 && len(parts) > 0 {
				stale := a.prev[a.rng.Intn(len(a.prev))]
				parts = replacePart(parts, a.rng.Intn(len(parts)), append([]protocol.WireTuple(nil), stale...))
				a.fired(b, at)
			}
		case faultplan.SSIForgeCoverage:
			// Struck on the deposit path, not here.
		}
	}
	return parts
}

// pickTuple draws a deterministic (partition, tuple) target among the
// non-empty partitions; ok is false when there is nothing to strike (the
// behavior stays armed for the next build).
func (a *Adversary) pickTuple(parts [][]protocol.WireTuple) (int, int, bool) {
	candidates := make([]int, 0, len(parts))
	for i, p := range parts {
		if len(p) > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return 0, 0, false
	}
	p := candidates[a.rng.Intn(len(candidates))]
	return p, a.rng.Intn(len(parts[p])), true
}

// replacePart swaps one partition in a shallow copy of the build, leaving
// the original outer slice untouched.
func replacePart(parts [][]protocol.WireTuple, i int, p []protocol.WireTuple) [][]protocol.WireTuple {
	out := append([][]protocol.WireTuple(nil), parts...)
	out[i] = p
	return out
}
