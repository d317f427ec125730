// Package ssi implements the Supporting Server Infrastructure: the
// powerful, highly available but untrusted side of the asymmetric
// architecture (Section 2.1). The SSI maintains queryboxes, stores the
// encrypted tuples of the collection phase, evaluates the cleartext SIZE
// clause, builds partitions for the aggregation and filtering phases, and
// re-assigns a partition when the TDS processing it goes offline.
//
// The SSI is honest-but-curious: it follows the protocol but records
// everything it can observe — the Observation type is that record, and the
// exposure analysis (internal/exposure) quantifies what it is worth.
package ssi

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/rng"
)

// Typed deposit rejections. The SSI never aborts a collection over one bad
// envelope — it rejects, records the event in the recovery ledger, and
// keeps the querybox open — so callers match these with errors.Is and
// proceed.
var (
	// ErrStaleDeposit rejects a replayed envelope: same device at the same
	// or an earlier attempt, or an envelope sealed under a different key
	// epoch than the query was posted in.
	ErrStaleDeposit = errors.New("ssi: stale or replayed deposit")
	// ErrCorruptDeposit rejects an envelope whose transport checksum does
	// not match its tuples (corrupted or truncated upload).
	ErrCorruptDeposit = errors.New("ssi: corrupt deposit")
	// ErrRevokedDeposit rejects an envelope from a device on the current
	// revocation list. Unlike the epoch check, revocation knows no grace
	// window: the moment the trust bundle lands, a revoked device's
	// deposits bounce — whatever epoch they claim.
	ErrRevokedDeposit = errors.New("ssi: deposit from revoked device")
)

// EpochPolicy is the admit gate's view of a live key rotation. Outside a
// rotation the zero value applies: deposits must match the posted epoch
// exactly. While a rotation's grace window is open, deposits sealed at
// the current epoch e and the previous epoch e−1 are both admitted to
// queries posted at either epoch — a fleet migrating in waves has honest
// devices of two adjacent epochs answering one query. Revocation is the
// deliberate exception: a revoked device is rejected immediately.
type EpochPolicy struct {
	// Epoch is the current wire epoch e (1-based; 0 disables the policy).
	Epoch int
	// Grace admits epoch e−1 alongside e while true.
	Grace bool
	// Revoked lists device IDs rejected outright.
	Revoked []string
}

// QueryState is everything the SSI holds for one active query.
type QueryState struct {
	Post        *protocol.QueryPost
	BytesStored int64
	Done        bool // SIZE condition reached
	StartedAt   time.Time

	tuples    tupleStore        // the spillable collection multiset
	observed  Observation       // TagCounts stays nil here: tags count in tagCounts
	tagCounts map[string]*int64 // counted through pointers: no key per tuple
	attempts  map[string]int    // device -> highest committed deposit attempt
	ledger    []LedgerEntry
	lastBuild [][]protocol.WireTuple // most recent partition build, for Repartition
	lastPos   []int32                // its store positions, when StreamBuild grouped it by tag
	outcomes  []DepositOutcome       // DepositEnvelopeBatch's out, reused by the next call
}

// tupleChunk is the tupleStore chunk size. 4096 tuples per chunk keeps a
// million-tuple collection in a few hundred fixed-size chunks instead of
// one slice that doubles through gigabyte reallocations.
const tupleChunk = 4096

// tupleStore holds the collection multiset as a sequence of fixed-size
// chunks: deposits stream in through append, verifiers read back bounded
// windows through slice, and the whole collection is never required to
// live in one contiguous allocation. Append order is preserved exactly —
// the covering-count and per-deposit commitment checks rely on offsets
// into the deposit-order sequence.
//
// The store is append-only and a stored tuple is immutable: a chunk is
// allocated at full capacity and never moves, and a written slot is never
// written again. So reads can be views: a window handed out before later
// deposits still reads the same tuples after them.
type tupleStore struct {
	chunks [][]protocol.WireTuple
	n      int
}

func (ts *tupleStore) append(ws []protocol.WireTuple) {
	for len(ws) > 0 {
		if len(ts.chunks) == 0 || len(ts.chunks[len(ts.chunks)-1]) == tupleChunk {
			ts.chunks = append(ts.chunks, make([]protocol.WireTuple, 0, tupleChunk))
		}
		last := &ts.chunks[len(ts.chunks)-1]
		take := min(len(ws), tupleChunk-len(*last))
		*last = append(*last, ws[:take]...)
		ts.n += take
		ws = ws[take:]
	}
}

// slice returns the half-open window [start, end), out-of-range bounds
// clamped: a view of the chunk it sits in, capacity clipped so an append
// by the holder reallocates, or a copy when it straddles a chunk boundary.
func (ts *tupleStore) slice(start, end int) []protocol.WireTuple {
	start, end = max(start, 0), min(end, ts.n)
	if start >= end {
		return nil
	}
	if c, off := ts.chunks[start/tupleChunk], start%tupleChunk; off+end-start <= len(c) {
		return c[off : off+end-start : off+end-start]
	}
	out := make([]protocol.WireTuple, 0, end-start)
	for i := start; i < end; {
		c := ts.chunks[i/tupleChunk]
		off := i % tupleChunk
		take := min(len(c)-off, end-i)
		out = append(out, c[off:off+take]...)
		i += take
	}
	return out
}

// Service is the infrastructure interface the engine's run path drives:
// everything the protocols need from the supporting servers — the
// querybox and its chunked collection store, the recovery ledger and the
// curious observation record, the rotation admit policy, and the
// partition builds. *SSI is the honest-but-curious implementation;
// Adversary wraps it with scripted misbehavior for the upgraded threat
// model. Keeping the engine on this interface is what makes the integrity
// layer meaningful: the verifier must not care which one it is talking to.
// It is also all an implementation carries: the engine writes a query's
// trace and journal itself, so an injected Service needs nothing outside
// this interface for its runs to be fully recorded.
//
// A deposit's envelope, tuple slice and Commit are the depositor's again
// once DepositEnvelope(Batch) returns: an implementation copies the tuples
// it keeps (the bytes they point to are immutable and may be shared) and
// reads Commit only during the call, so the collection walk refills one
// envelope, buffer and MAC per window slot. DepositEnvelopeBatch's out is
// the SSI's again at the query's next DepositEnvelopeBatch: one caller at a
// time commits a query's envelopes, as the engine's commit thread does;
// DepositEnvelope's outcome is its caller's.
// CollectedTuples and DepositEnvelope have no engine caller: they stay for
// bench/spans.go, which forwards them by name.
type Service interface {
	PostQuery(post *protocol.QueryPost, now time.Time) error
	DepositEnvelope(id string, dep *protocol.Deposit, now time.Time) (accepted int, done bool, err error)
	DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) (out []DepositOutcome, doneAt int, done bool, err error)
	CollectionDone(id string, now time.Time) bool
	CollectedTuples(id string) []protocol.WireTuple
	CollectedCount(id string) int
	CollectedRange(id string, start, end int) []protocol.WireTuple
	ObserveRelay(id string, tuples []protocol.WireTuple, at time.Time)
	Record(id string, e LedgerEntry)
	LedgerFor(id string) []LedgerEntry
	ObservationFor(id string) Observation
	BytesStored(id string) int64
	Drop(id string)
	// SetEpochPolicy is how the engine's rotation coordinator pushes the
	// admit gate's view of the current epoch, the grace window and the
	// revocation list.
	SetEpochPolicy(EpochPolicy)
	PartitionRandom(id string, tuples []protocol.WireTuple, perPartition int, rng *rand.Rand) [][]protocol.WireTuple
	PartitionByTag(id string, tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple
	Repartition(id string) ([][]protocol.WireTuple, []int32)
	// StreamBuild is every protocol's first-step build, over the store in
	// place; pos[k] is build tuple k's store position when it groups by tag.
	StreamBuild(id string, perPartition int) (parts [][]protocol.WireTuple, pos []int32)
}

var _ Service = (*SSI)(nil)

// LedgerEntry is one recovery-relevant event the SSI recorded for a query:
// a deposit that timed out, was rejected, or a partition re-issued to a
// replacement TDS. The ledger is the SSI-side audit trail of the fault
// model — deterministic for a fixed fault seed, whatever the engine's
// worker count.
type LedgerEntry struct {
	// Kind classifies the event: "deposit-timeout", "deposit-corrupt",
	// "deposit-stale", "deposit-retry" (the second connection of a device
	// first refused as stale, which is what books it), "deposit-revoked",
	// "reassign", "partition-abandoned", and the rotation lifecycle marks
	// "rotation-begin", "rotation-wave", "rotation-complete".
	Kind string
	// Phase names the aggregation/filtering phase for reassignments.
	Phase string
	// Device is the TDS the event concerns.
	Device string
	// Attempt is the 1-based attempt the event ended.
	Attempt int
	// Wait is the simulated timeout + backoff the SSI spent on the event.
	Wait time.Duration
	// At is the simulated instant the SSI recorded the event — an offset
	// from obs.SimOrigin, never wall time, so ledgers stay bit-identical
	// across worker counts and hosts. Every recovery path stamps it.
	At time.Time
}

// DepositOutcome is one envelope's fate inside a committed run.
type DepositOutcome struct {
	Accepted int
	Err      error // nil, ErrStaleDeposit or ErrCorruptDeposit
}

// Observation is the honest-but-curious view the SSI accumulates on one
// query: everything in it is information the protocol deliberately or
// accidentally leaks. The exposure analysis consumes tag frequencies.
type Observation struct {
	TotalTuples  int64
	TaggedTuples int64
	TagCounts    map[string]int64
	BytesSeen    int64
}

// observation returns the query's curious record with the tag counts
// copied into a fresh TagCounts map, safe to hand out.
func (st *QueryState) observation() Observation {
	out := st.observed
	out.TagCounts = make(map[string]int64, len(st.tagCounts))
	for tag, n := range st.tagCounts {
		out.TagCounts[tag] = *n
	}
	return out
}

// DefaultShards is the stripe count NewSharded uses when asked for zero.
// Queries hash uniformly over stripes, so a modest power of two already
// makes cross-query lock collisions rare at any realistic in-flight count.
const DefaultShards = 16

// stripe is one lock domain of the querybox. Query state is fully
// independent per ID, so a query behaves identically whichever stripe
// holds it and however many there are.
type stripe struct {
	mu      sync.Mutex
	queries map[string]*QueryState
}

// admitPolicy is an installed EpochPolicy with its revocation list
// indexed. Immutable once published.
type admitPolicy struct {
	EpochPolicy
	revoked map[string]bool
}

// SSI is the supporting server infrastructure. Safe for concurrent use by
// many TDS goroutines. Per-query state is striped over independent lock
// domains selected by a stable hash of the query ID, so N in-flight
// queries never serialize on one mutex: the paper's SSI is "powerful and
// highly available" (Section 2.1) precisely because it serves many
// queriers at once. The epoch policy is fleet-wide and held once.
type SSI struct {
	stripes []stripe
	policy  atomic.Pointer[admitPolicy]
}

// NewSharded returns an empty SSI with n stripes (DefaultShards when
// n <= 0).
func NewSharded(n int) *SSI {
	if n <= 0 {
		n = DefaultShards
	}
	s := &SSI{stripes: make([]stripe, n)}
	for i := range s.stripes {
		s.stripes[i].queries = make(map[string]*QueryState)
	}
	s.policy.Store(&admitPolicy{})
	return s
}

// stripeOf routes one query ID to its stripe.
func (s *SSI) stripeOf(id string) *stripe {
	return &s.stripes[rng.Hash(id)%uint32(len(s.stripes))]
}

// SetEpochPolicy installs the rotation admit policy, atomically for every
// stripe. The rotation coordinator calls it at the grace boundaries; a
// deposit call reads the policy once, so every envelope of a batch sees
// exactly one policy, and a call that starts after SetEpochPolicy returns
// sees the new one.
func (s *SSI) SetEpochPolicy(p EpochPolicy) {
	ap := &admitPolicy{EpochPolicy: p}
	if len(p.Revoked) > 0 {
		ap.revoked = make(map[string]bool, len(p.Revoked))
		for _, id := range p.Revoked {
			ap.revoked[id] = true
		}
	}
	s.policy.Store(ap)
}

// PostQuery deposits a query in the global querybox (step 1 of Fig. 2).
func (s *SSI) PostQuery(post *protocol.QueryPost, now time.Time) error {
	sp := s.stripeOf(post.ID)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if _, dup := sp.queries[post.ID]; dup {
		return fmt.Errorf("ssi: query %q already posted", post.ID)
	}
	sp.queries[post.ID] = &QueryState{
		Post:      post,
		StartedAt: now,
		tagCounts: make(map[string]*int64),
		attempts:  make(map[string]int),
	}
	return nil
}

// DepositEnvelope stores one device's sealed collection deposit (step 4),
// evaluates the SIZE clause and records observations. It returns how many
// tuples were accepted (the SIZE cap may truncate) and whether the
// collection is now complete. It enforces the availability protocol: a
// deposit from a revoked device, a replayed envelope (same device,
// non-advancing attempt), an envelope from a different key epoch, or one
// failing its transport checksum is rejected with a typed error
// (ErrRevokedDeposit / ErrStaleDeposit / ErrCorruptDeposit) and nothing is
// stored — the collection stays open.
func (s *SSI) DepositEnvelope(id string, dep *protocol.Deposit, now time.Time) (accepted int, done bool, err error) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return 0, false, fmt.Errorf("ssi: unknown query %q", id)
	}
	var out [1]DepositOutcome
	s.commitLocked(st, []*protocol.Deposit{dep}, out[:], now)
	return out[0].Accepted, st.Done, out[0].Err
}

// admit runs the revocation, replay, epoch and integrity checks of one
// envelope and commits its attempt counter on success. The caller holds
// the query's stripe lock.
func (p *admitPolicy) admit(st *QueryState, dep *protocol.Deposit) error {
	if p.revoked[dep.DeviceID] {
		return fmt.Errorf("%w: device %s", ErrRevokedDeposit, dep.DeviceID)
	}
	if last, seen := st.attempts[dep.DeviceID]; seen && dep.Attempt <= last {
		return fmt.Errorf("%w: device %s attempt %d already committed",
			ErrStaleDeposit, dep.DeviceID, dep.Attempt)
	}
	if dep.Epoch != st.Post.Epoch && !p.graceAdmits(dep.Epoch, st.Post.Epoch) {
		return fmt.Errorf("%w: epoch %d, query posted at epoch %d",
			ErrStaleDeposit, dep.Epoch, st.Post.Epoch)
	}
	if !dep.IntegrityOK() {
		return fmt.Errorf("%w: checksum mismatch from device %q", ErrCorruptDeposit, dep.DeviceID)
	}
	st.attempts[dep.DeviceID] = dep.Attempt
	return nil
}

// graceAdmits reports whether the open grace window covers a deposit
// epoch / posted epoch mismatch: both must sit in {e−1, e}. The caller
// has already ruled out the exact match.
func (p *admitPolicy) graceAdmits(depEpoch, postEpoch int) bool {
	if !p.Grace {
		return false
	}
	in := func(e int) bool { return e == p.Epoch || e == p.Epoch-1 }
	return in(depEpoch) && in(postEpoch)
}

// DepositEnvelopeBatch is DepositEnvelope over a committed run of
// envelopes, under one lock acquisition. Envelopes are admitted in order; a rejected
// envelope gets its typed error in out[i].Err and the walk continues (a
// bad deposit cannot complete a collection), while the walk stops at the
// envelope whose deposit reaches the SIZE condition, exactly as the
// sequential loop never visits later devices: doneAt is that envelope's
// index (-1 when the collection is still open, or was already complete
// before the first envelope).
func (s *SSI) DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) (out []DepositOutcome, doneAt int, done bool, err error) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return nil, -1, false, fmt.Errorf("ssi: unknown query %q", id)
	}
	st.outcomes = slices.Grow(st.outcomes[:0], len(deps))[:len(deps)]
	clear(st.outcomes)
	doneAt = s.commitLocked(st, deps, st.outcomes, now)
	return st.outcomes, doneAt, st.Done, nil
}

// commitLocked admits deps in order, filing each envelope's outcome in
// out (len(deps), zeroed), and returns the index of the envelope whose
// deposit reached the SIZE condition, or -1. The caller holds the query's
// stripe lock.
func (s *SSI) commitLocked(st *QueryState, deps []*protocol.Deposit, out []DepositOutcome, now time.Time) int {
	policy := s.policy.Load()
	for i, dep := range deps {
		if st.Done {
			break
		}
		if rejectErr := policy.admit(st, dep); rejectErr != nil {
			out[i].Err = rejectErr
			continue
		}
		out[i].Accepted = s.depositLocked(st, dep.Tuples, now)
		if st.Done {
			return i
		}
	}
	return -1
}

// Record appends one recovery event to a query's ledger. The engine — the
// simulation's physical world — reports events in committed connection
// order, so the ledger is deterministic for a fixed fault seed regardless
// of worker count.
func (s *SSI) Record(id string, e LedgerEntry) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return
	}
	st.ledger = append(st.ledger, e)
}

// LedgerFor returns a copy of the recovery ledger of a query.
func (s *SSI) LedgerFor(id string) []LedgerEntry {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return nil
	}
	out := make([]LedgerEntry, len(st.ledger))
	copy(out, st.ledger)
	return out
}

// depositLocked stores one device's tuples, up to the SIZE cap; the
// caller holds the stripe lock and has seen st.Done false.
func (s *SSI) depositLocked(st *QueryState, tuples []protocol.WireTuple, now time.Time) (accepted int) {
	if max := st.Post.Size.MaxTuples; max > 0 {
		if room := max - int64(st.tuples.n); int64(len(tuples)) >= room {
			tuples, st.Done = tuples[:room], true
		}
	}
	st.tuples.append(tuples)
	for i := range tuples {
		st.BytesStored += int64(tuples[i].Size())
		s.observe(st, &tuples[i])
	}
	if d := st.Post.Size.Duration; d > 0 && now.Sub(st.StartedAt) >= d {
		st.Done = true
	}
	return len(tuples)
}

// observe records what the honest-but-curious SSI can see of one tuple.
// Only a tag seen for the first time allocates (its key and counter).
func (s *SSI) observe(st *QueryState, w *protocol.WireTuple) {
	st.observed.TotalTuples++
	st.observed.BytesSeen += int64(w.Size())
	if len(w.Tag) > 0 {
		st.observed.TaggedTuples++
		n := st.tagCounts[string(w.Tag)]
		if n == nil {
			n = new(int64)
			st.tagCounts[string(w.Tag)] = n
		}
		*n++
	}
}

// ObserveRelay records intermediate tuples the SSI relays during the
// aggregation phase; they feed the same curious record. The instant is
// the engine's to trace; the SSI keeps no clock of its own.
func (s *SSI) ObserveRelay(id string, tuples []protocol.WireTuple, _ time.Time) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return
	}
	for i := range tuples {
		s.observe(st, &tuples[i])
	}
}

// CollectionDone reports whether the SIZE condition has been reached.
func (s *SSI) CollectionDone(id string, now time.Time) bool {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return false
	}
	if !st.Done {
		if d := st.Post.Size.Duration; d > 0 && now.Sub(st.StartedAt) >= d {
			st.Done = true
		}
	}
	return st.Done
}

// CollectedTuples returns the covering result of the collection phase as
// one flat slice (a view while it fits one chunk, a copy beyond). Large-
// fleet consumers should prefer CollectedCount + CollectedRange, which
// never force the whole collection into one slice.
func (s *SSI) CollectedTuples(id string) []protocol.WireTuple {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return nil
	}
	return st.tuples.slice(0, st.tuples.n)
}

// CollectedCount returns the number of tuples stored for the query.
func (s *SSI) CollectedCount(id string) int {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return 0
	}
	return st.tuples.n
}

// CollectedRange returns the stored tuples [start, end) in deposit order
// — the window a streaming verifier walks one deposit at a time instead
// of materializing the whole collection. A snapshot; never written through.
func (s *SSI) CollectedRange(id string, start, end int) []protocol.WireTuple {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return nil
	}
	return st.tuples.slice(start, end)
}

// ObservationFor returns a snapshot of the curious ledger of a query.
func (s *SSI) ObservationFor(id string) Observation {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return Observation{TagCounts: map[string]int64{}}
	}
	return st.observation()
}

// BytesStored returns the temporary-storage footprint of a query at the
// SSI — a component of Load_Q.
func (s *SSI) BytesStored(id string) int64 {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return 0
	}
	return st.BytesStored
}

// Drop discards all state of a finished query.
func (s *SSI) Drop(id string) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	delete(sp.queries, id)
}

// PartitionRandom splits tuples into partitions of at most perPartition
// entries, in random order — all the SSI can do when every ciphertext is
// non-deterministic (S_Agg, basic protocol): partitions are uninterpreted
// chunks of bytes (step 9 of Fig. 2). The build is remembered so
// Repartition can re-issue it.
func (s *SSI) PartitionRandom(id string, tuples []protocol.WireTuple, perPartition int, rng *rand.Rand) [][]protocol.WireTuple {
	var parts [][]protocol.WireTuple
	if len(tuples) > 0 {
		shuffled, per := slices.Clone(tuples), max(perPartition, 1)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for start := 0; start < len(shuffled); start += per {
			end := min(start+per, len(shuffled))
			parts = append(parts, shuffled[start:end:end])
		}
	}
	s.stashBuild(id, parts)
	return parts
}

// PartitionByTag assembles tuples with equal tags into the same partitions
// (the Det_Enc / h(bucketId) grouping of the noise and histogram
// protocols). Groups larger than maxPerPartition split across several
// partitions so that several TDSs can share one group's load (the n_NB
// fan-in of the cost model). Tuples without a tag cannot be routed and are
// sprinkled round-robin. The build is remembered for Repartition.
func (s *SSI) PartitionByTag(id string, tuples []protocol.WireTuple, maxPerPartition int) [][]protocol.WireTuple {
	parts, _ := tagBuild([][]protocol.WireTuple{tuples}, len(tuples), maxPerPartition)
	s.stashBuild(id, parts)
	return parts
}

// StreamBuild is the first step's build over the covering result, read in
// place from the chunked store and stashed for Repartition. For a tagged
// post (Rnf_Noise, C_Noise, ED_Hist) it is PartitionByTag's grouping, and
// pos[k] — shared, never written — is the store position of build tuple k,
// which lets the trusted side check it against what it verified. For
// Basic and S_Agg it is deposit-order windows of perPartition tuples and
// pos is nil: deposit order is itself a uniform random permutation of the
// fleet, so a window is exactly the "random partition" of step 9.
func (s *SSI) StreamBuild(id string, perPartition int) ([][]protocol.WireTuple, []int32) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok || st.tuples.n == 0 {
		return nil, nil
	}
	n, parts, pos := st.tuples.n, [][]protocol.WireTuple(nil), []int32(nil)
	switch st.Post.Kind {
	case protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist:
		parts, pos = tagBuild(st.tuples.chunks, n, perPartition)
	default:
		per := max(perPartition, 1)
		parts = make([][]protocol.WireTuple, 0, (n+per-1)/per)
		for start := 0; start < n; start += per {
			parts = append(parts, st.tuples.slice(start, start+per))
		}
	}
	st.lastBuild, st.lastPos = viewBuild(parts), pos
	return parts, pos
}

// Repartition re-issues the most recent partition build of a query — what
// the engine demands after quarantining a build that failed verification.
// The honest SSI's stash is a private outer slice taken at build time, so
// the re-issue is exactly the build it originally computed, whatever was
// done to the outer slice it handed out.
func (s *SSI) Repartition(id string) ([][]protocol.WireTuple, []int32) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok || st.lastBuild == nil {
		return nil, nil
	}
	return viewBuild(st.lastBuild), st.lastPos
}

// stashBuild snapshots a build of the caller's tuples for Repartition.
func (s *SSI) stashBuild(id string, parts [][]protocol.WireTuple) {
	sp := s.stripeOf(id)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st, ok := sp.queries[id]
	if !ok {
		return
	}
	st.lastBuild, st.lastPos = viewBuild(parts), nil
}

// viewBuild returns a private outer slice over the build's partitions,
// which it shares. Sharing is safe because a partition's tuples are never
// written once built (the adversary rebuilds what it strikes), and every
// window is capacity-clipped: an append through it reallocates.
func viewBuild(parts [][]protocol.WireTuple) [][]protocol.WireTuple {
	out := make([][]protocol.WireTuple, len(parts))
	for i, p := range parts {
		out[i] = p[:len(p):len(p)]
	}
	return out
}

// tagBuild is PartitionByTag's grouping of the n tuples in chunks (the
// store's, or one slice), in place; pos[k] is build tuple k's position.
func tagBuild(chunks [][]protocol.WireTuple, n, maxPerPartition int) ([][]protocol.WireTuple, []int32) {
	if n == 0 {
		return nil, nil
	}
	if maxPerPartition <= 0 {
		maxPerPartition = n
	}
	// Count: number each tag by first appearance (the deterministic
	// partition order) and remember every tuple's group, -1 for untagged.
	groupOf := make([]int32, 0, n)
	index := make(map[string]int32)
	counts, untagged := []int(nil), 0 // tuples per group, untagged tuples
	for _, c := range chunks {
		for i := range c {
			tag := c[i].Tag
			if len(tag) == 0 {
				groupOf = append(groupOf, -1)
				untagged++
				continue
			}
			g, seen := index[string(tag)]
			if !seen {
				g = int32(len(counts))
				index[string(tag)] = g
				counts = append(counts, 0)
			}
			groupOf = append(groupOf, g)
			counts[g]++
		}
	}
	// Carve: group g owns ceil(count/max) consecutive partitions from
	// first[g], each a clipped window of one flat array sized for its tagged
	// tuples plus its share of the untagged; next[p] becomes its cursor and
	// tail[p] the cursor of its untagged share, behind the tagged tuples.
	first := make([]int, len(counts))
	var next []int
	for g, c := range counts {
		first[g] = len(next)
		for ; c > 0; c -= maxPerPartition {
			next = append(next, min(c, maxPerPartition)) // the tagged size, until carved
		}
	}
	if len(next) == 0 {
		next = []int{0} // nothing tagged: one partition of sprinkles
	}
	nparts := len(next)
	flat, tail := make([]protocol.WireTuple, n), make([]int, nparts)
	out := make([][]protocol.WireTuple, nparts)
	start := 0
	for p := range out {
		size := next[p] + untagged/nparts
		if p < untagged%nparts {
			size++
		}
		out[p], next[p], tail[p] = flat[start:start+size:start+size], start, start+next[p]
		start += size
	}
	// Place: a group fills its partitions in order of appearance, the
	// untagged tuples go round-robin.
	pos := make([]int32, n)
	clear(counts) // now: tuples of each group placed so far
	i, sprinkled := int32(0), 0
	for _, c := range chunks {
		for j := range c {
			var at *int
			if g := groupOf[i]; g >= 0 {
				at = &next[first[g]+counts[g]/maxPerPartition]
				counts[g]++
			} else {
				at = &tail[sprinkled%nparts]
				sprinkled++
			}
			flat[*at], pos[*at] = c[j], i
			*at++
			i++
		}
	}
	return out, pos
}
