// The sharded SSI: the same honest-but-curious infrastructure, its
// per-query state striped over independent lock domains so N in-flight
// queries never serialize on one mutex. The paper's SSI is "powerful and
// highly available" (Section 2.1) precisely because it serves many
// queriers at once; a single lock around every querybox would make the
// simulator the bottleneck the SSI is not.
package ssi

import (
	"math/rand"
	"time"

	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
)

// DefaultShards is the stripe count NewSharded uses when asked for zero.
// Queries hash uniformly over shards, so a modest power of two already
// makes cross-query lock collisions rare at any realistic in-flight count.
const DefaultShards = 16

// Sharded is a Service whose per-query state lives in one of several
// independent SSI stripes, selected by a stable hash of the query ID.
// Every call routes to exactly one stripe, so two queries on different
// stripes never contend — and a query observes byte-identical behavior to
// a plain SSI, because query state was always fully independent per ID.
type Sharded struct {
	shards []*SSI
}

var _ Service = (*Sharded)(nil)

// NewSharded builds a sharded SSI with n stripes (DefaultShards when
// n <= 0).
func NewSharded(n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Sharded{shards: make([]*SSI, n)}
	for i := range s.shards {
		s.shards[i] = New()
	}
	return s
}

// WithTracer mirrors ledger events of every stripe into tr. The tracer is
// keyed by query ID and safe for concurrent use, so stripes share it.
func (s *Sharded) WithTracer(tr *obs.Tracer) {
	for _, sh := range s.shards {
		sh.WithTracer(tr)
	}
}

// WithJournal mirrors ledger events of every stripe into j. Like the
// tracer, the journal is keyed by query ID and safe for concurrent use.
func (s *Sharded) WithJournal(j *obs.Journal) {
	for _, sh := range s.shards {
		sh.WithJournal(j)
	}
}

// SetEpochPolicy installs the rotation admit policy on every stripe. The
// policy is fleet-wide state, not per-query state, so unlike the routed
// calls it fans out — a query must see the same grace window whichever
// stripe its ID hashes to.
func (s *Sharded) SetEpochPolicy(p EpochPolicy) {
	for _, sh := range s.shards {
		sh.SetEpochPolicy(p)
	}
}

// Shards reports the stripe count.
func (s *Sharded) Shards() int { return len(s.shards) }

// shard routes one query ID to its stripe: FNV-1a, the repo's stable
// per-entity hashing convention.
func (s *Sharded) shard(id string) *SSI {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return s.shards[h%uint32(len(s.shards))]
}

func (s *Sharded) PostQuery(post *protocol.QueryPost, now time.Time) error {
	return s.shard(post.ID).PostQuery(post, now)
}
func (s *Sharded) DepositEnvelope(id string, dep *protocol.Deposit, now time.Time) (int, bool, error) {
	return s.shard(id).DepositEnvelope(id, dep, now)
}
func (s *Sharded) DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) ([]DepositOutcome, int, bool, error) {
	return s.shard(id).DepositEnvelopeBatch(id, deps, now)
}
func (s *Sharded) CollectionDone(id string, now time.Time) bool {
	return s.shard(id).CollectionDone(id, now)
}
func (s *Sharded) CollectedTuples(id string) []protocol.WireTuple {
	return s.shard(id).CollectedTuples(id)
}
func (s *Sharded) CollectedCount(id string) int { return s.shard(id).CollectedCount(id) }
func (s *Sharded) CollectedRange(id string, start, end int) []protocol.WireTuple {
	return s.shard(id).CollectedRange(id, start, end)
}
func (s *Sharded) ObserveRelay(id string, tuples []protocol.WireTuple, at time.Time) {
	s.shard(id).ObserveRelay(id, tuples, at)
}
func (s *Sharded) Record(id string, e LedgerEntry)   { s.shard(id).Record(id, e) }
func (s *Sharded) LedgerFor(id string) []LedgerEntry { return s.shard(id).LedgerFor(id) }
func (s *Sharded) ObservationFor(id string) Observation {
	return s.shard(id).ObservationFor(id)
}
func (s *Sharded) BytesStored(id string) int64 { return s.shard(id).BytesStored(id) }
func (s *Sharded) PartitionRandom(id string, tuples []protocol.WireTuple, perPartition int, rng *rand.Rand) [][]protocol.WireTuple {
	return s.shard(id).PartitionRandom(id, tuples, perPartition, rng)
}
func (s *Sharded) PartitionByTag(id string, tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple {
	return s.shard(id).PartitionByTag(id, tuples, maxPerPartition)
}
func (s *Sharded) Repartition(id string) [][]protocol.WireTuple {
	return s.shard(id).Repartition(id)
}
func (s *Sharded) StreamBuild(id string, perPartition int) [][]protocol.WireTuple {
	return s.shard(id).StreamBuild(id, perPartition)
}
func (s *Sharded) Drop(id string) { s.shard(id).Drop(id) }
