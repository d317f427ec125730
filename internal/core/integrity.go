package core

import (
	"bytes"
	"hash/maphash"
	"math/bits"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Verified execution: the engine checks everything the SSI claims against
// the k2-keyed commitments the TDSs produced, so a weakly malicious
// infrastructure can disrupt a query but never silently skew its answer.
//
// The trust chain has three links. Each deposit carries the depositing
// device's commitment over (query, device, attempt, epoch, tuples); the
// collection verifier walks the stored tuple sequence against the
// acknowledged deposits and folds the leaf commitments into a collection
// root. Each partition build is checked to be a permutation of its input
// (the SSI may order and group ciphertext freely — that is its job — but
// may not drop, duplicate or substitute any of it), and each build's
// commitment folds into the running digest. Finally the claimed coverage
// is reconciled against the recovery ledger. A failed partition check
// quarantines the build and retries once through the SSI's stashed honest
// build; everything else, and a retry that fails again, surfaces as a
// typed ErrSSIMisbehavior.

// depositRecord is the engine-side account of one acknowledged deposit:
// what the SSI claimed to accept, and the device commitment that claim
// must answer to.
type depositRecord struct {
	device   string
	attempt  int
	accepted int
	// epoch is the wire epoch the device committed under. During a
	// rotation grace window deposits of epoch e and e-1 legitimately
	// coexist in one covering result; each record verifies against its
	// own epoch's k2 committer.
	epoch  int
	commit []byte
}

// integrityState accumulates one run's verification context.
type integrityState struct {
	records []depositRecord
	// views holds each record's stored tuples as verifyCollection verified
	// them (store views): from then on, the run's covering result.
	views    [][]protocol.WireTuple
	digest   []byte // folded commitment over everything verified so far
	deposits int    // deposit commitments verified
	phases   int    // partition builds verified
	// head and next are multisetEqual's index table, reused across the
	// run's builds of relayed partials.
	head, next []int32
	// The position check's scratch, sized at the run's first positioned
	// build: verified position p is views[v][p-viewStart[v]], v = viewOf[p].
	viewOf, viewStart []int32
	seen              []uint64
}

// IntegrityReport summarizes the verification of one run. The digest is
// keyed (k2) and covers every ciphertext tuple that entered aggregation;
// it is reproducible within a run but not across runs (tuple ciphertexts
// are nondeterministically encrypted), which is why it lives here and not
// in the DeepEqual-compared Metrics.
type IntegrityReport struct {
	// Verified is false only when the request opted out (SkipVerify).
	Verified bool
	// Deposits is how many acknowledged deposits had their commitment
	// checked against the stored tuples.
	Deposits int
	// Phases is how many partition builds were verified.
	Phases int
	// Checks, Violations, Quarantines and Recovered are the verifier's
	// tallies, which Metrics reports under the same names.
	Checks, Violations, Quarantines, Recovered int
	// Digest is the folded k2 commitment over the collection root and
	// every verified partition build.
	Digest []byte
}

// integrityReport renders the run's verification outcome, nil when
// verification was skipped.
func (rs *runState) integrityReport() *IntegrityReport {
	if !rs.verify {
		return nil
	}
	m := rs.metrics
	return &IntegrityReport{
		Verified: true,
		Deposits: rs.integ.deposits,
		Phases:   rs.integ.phases,
		Checks:   m.IntegrityChecks, Violations: m.IntegrityViolations,
		Quarantines: m.IntegrityQuarantines, Recovered: m.IntegrityRecovered,
		Digest: append([]byte(nil), rs.integ.digest...),
	}
}

// recordDepositCommit files one acknowledged deposit for collection
// verification. When the SIZE cap truncated the acceptance, the device
// re-commits to the accepted prefix (it knows the cutoff from the SSI's
// acknowledgment), so the record always binds exactly the tuples that
// should be in storage.
func (rs *runState) recordDepositCommit(device string, r *collectResult, accepted, attempt int) {
	if !rs.verify {
		return
	}
	commit := r.commit
	if accepted < len(r.tuples) {
		commit, _ = r.t.CommitDeposit(rs.post, attempt, r.tuples[:accepted])
	}
	rs.integ.records = append(rs.integ.records, depositRecord{
		device: device, attempt: attempt, accepted: accepted, epoch: r.epoch,
		commit: commit,
	})
}

// integrityViolation accounts one failed check and returns the typed
// detection error. The ledger entry makes the detection visible in
// Metrics.Ledger and, through the engine's mirror, in Response.Trace.
func (e *Engine) integrityViolation(rs *runState, kind, phase string) *ErrSSIMisbehavior {
	rs.metrics.IntegrityViolations++
	e.record(rs, ssi.LedgerEntry{
		Kind: "integrity-violation", Phase: phase, At: rs.clock.Now(),
	})
	return &ErrSSIMisbehavior{Kind: kind, Phase: phase}
}

// verifyCollection settles the collection phase against the deposit
// commitments: the stored covering result must be exactly the
// concatenation, in commit order, of every acknowledged deposit, each
// slice answering to its device's k2 commitment; and the coverage the
// metrics will report must agree with the recovery ledger's account of
// what was lost. On success the leaf commitments fold into the
// collection root that seeds the run digest. Collection misbehavior is
// never recoverable: a forged acknowledgment means the tuples are
// already gone.
func (e *Engine) verifyCollection(rs *runState) error {
	if !rs.verify {
		return nil
	}
	// Each record's stored slice is fetched as a store view and kept: the
	// builds are checked against these views, so the run never needs the
	// covering result as one slice. The leaves are independent MACs — the
	// workers compute them into ok — and the serial loop then checks and
	// folds them in record order, so the checks counted, the first
	// violation reported and the folded root are those of a
	// one-record-at-a-time walk.
	id, st := rs.post.ID, rs.integ
	st.views = make([][]protocol.WireTuple, len(st.records))
	off, size := 0, 0
	for i, r := range st.records {
		st.views[i] = rs.ssi.CollectedRange(id, off, off+r.accepted)
		off += r.accepted
		size += protocol.TotalSize(st.views[i])
	}
	rs.metrics.IntegrityChecks++
	if off != rs.ssi.CollectedCount(id) {
		return e.integrityViolation(rs, "covering-count", "collection")
	}
	ok := make([]bool, len(st.records))
	c := rs.crew
	if size < leafFanOutBytes {
		c = &crew{n: 1} // too little to repay waking a core: the caller alone
	}
	c.each(len(st.records), func(_, i int) error {
		// Each record answers to the committer of the epoch it deposited
		// under — across a rotation boundary the covering result holds
		// both epochs' deposits, each verifiable only with its own k2.
		r, comm := &st.records[i], rs.verifier
		if r.epoch != rs.post.Epoch {
			comm = e.committerFor(r.epoch)
		}
		var leaf [tdscrypto.CommitSize]byte // the recomputed leaf stays on this stack
		ok[i] = tdscrypto.CommitEqual(r.commit, protocol.SumDepositCommitment(&leaf, comm, id, r.device, r.attempt, r.epoch, st.views[i]))
		return nil
	})
	fold := rs.verifier.StartFold("collection-root")
	for i := range st.records {
		rs.metrics.IntegrityChecks++
		if !ok[i] {
			fold.Discard()
			return e.integrityViolation(rs, "deposit-commitment", "collection")
		}
		fold.Add(st.records[i].commit) // equal to the recomputed leaf
	}
	st.deposits = len(st.records)

	// Coverage account: every deposit the metrics wrote off must have a
	// ledger entry of the matching kind — an SSI understating churn (to
	// mask discarded deposits) trips here.
	timeouts, corrupt := 0, 0
	for _, le := range rs.ssi.LedgerFor(id) {
		switch le.Kind {
		case "deposit-timeout":
			timeouts++
		case "deposit-corrupt":
			corrupt++
		}
	}
	rs.metrics.IntegrityChecks++
	if timeouts != rs.metrics.DroppedDeposits || corrupt != rs.metrics.CorruptDeposits {
		fold.Discard()
		return e.integrityViolation(rs, "coverage-account", "collection")
	}

	st.digest = fold.Sum()
	return nil
}

// committerFor returns (and caches) the k2 committer of one wire epoch.
// RingAt is a pure function of the master key, so a query pinned to the
// epoch it posted at keeps verifying correctly even after the authority
// rotates underneath it mid-run.
func (e *Engine) committerFor(wireEpoch int) *tdscrypto.Committer {
	if wireEpoch < 1 {
		wireEpoch = 1
	}
	e.kmMu.Lock()
	defer e.kmMu.Unlock()
	if c, ok := e.commCache[wireEpoch]; ok {
		return c
	}
	c := tdscrypto.NewCommitter(e.keyAuth.RingAt(uint64(wireEpoch - 1)).K2)
	if e.commCache == nil {
		e.commCache = make(map[int]*tdscrypto.Committer)
	}
	e.commCache[wireEpoch] = c
	return c
}

// buildVerified obtains one partition build and verifies it before any
// TDS processes it. The run's first build partitions the covering result
// — step 9 of every protocol does — and is checked against the views
// verifyCollection kept, through the store positions the build names when
// it is not in deposit order; every later build partitions the relayed
// partials in input. A failed check quarantines the build and retries
// once through the SSI's stashed (pre-tamper) build — the
// graceful-degradation path, which recovers the honest result bit-for-bit
// because the stash needed no fresh RNG draws. A retry that fails again
// aborts the run with the typed error.
func (e *Engine) buildVerified(rs *runState, phase string, input []protocol.WireTuple,
	build func() ([][]protocol.WireTuple, []int32)) ([][]protocol.WireTuple, error) {
	parts, pos := build()
	if !rs.verify {
		return parts, nil
	}
	covering := rs.integ.phases == 0
	rs.integ.phases++
	rs.metrics.IntegrityChecks++
	if rs.foldBuild(phase, covering, input, parts, pos) {
		return parts, nil
	}
	verr := e.integrityViolation(rs, "partition-multiset", phase)
	rs.metrics.IntegrityQuarantines++
	e.record(rs, ssi.LedgerEntry{
		Kind: "integrity-quarantine", Phase: phase, At: rs.clock.Now(),
	})
	retry, pos := rs.ssi.Repartition(rs.post.ID)
	rs.metrics.IntegrityChecks++
	if retry != nil && rs.foldBuild(phase, covering, input, retry, pos) {
		rs.metrics.IntegrityRecovered++
		e.record(rs, ssi.LedgerEntry{
			Kind: "integrity-recovered", Phase: phase, At: rs.clock.Now(),
		})
		return retry, nil
	}
	return nil, verr
}

// foldBuild checks one partition build and, when it passes, folds it
// under the previous digest, Merkle-style, so the final digest pins the
// exact content and grouping of every phase. A build over the covering
// result needs no tuple byte MAC'd again — the collection root commits
// every one, in deposit order:
//   - in that order (a deposit-order build), an identity walk against the
//     views proves it, and the partition boundaries fix the grouping;
//   - in any other order, pos must name each verified position once, each
//     holding the build tuple at that index, and each partition's leaf
//     commits those positions, each naming a tuple the root commits.
//
// Relayed partials (in input) are pinned by nothing else, so a multiset
// check proves them and each partition's leaf commits its tuples' bytes.
func (rs *runState) foldBuild(phase string, covering bool, input []protocol.WireTuple,
	parts [][]protocol.WireTuple, pos []int32) bool {
	st, c := rs.integ, rs.verifier
	if covering && st.inOrder(parts) {
		fold, end := c.StartFold("bounds/"+phase), 0
		fold.Add(st.digest)
		for _, p := range parts {
			end += len(p)
			fold.AddUint64(uint64(end))
		}
		st.digest = fold.Sum()
		return true
	}
	if covering && !st.positionsMatch(parts, pos) || !covering && !st.multisetEqual(input, parts) {
		return false
	}
	fold, domain := c.StartFold("phase/"+phase), "partition/"+phase
	if covering {
		domain = "positions/" + phase
	}
	fold.Add(st.digest)
	for _, p := range parts {
		leaf := c.StartCommit(domain)
		if covering {
			for _, i := range pos[:len(p)] {
				leaf.AddUint64(uint64(i))
			}
			pos = pos[len(p):]
		} else {
			protocol.CommitTuples(leaf, p)
		}
		fold.Add(leaf.Sum())
	}
	st.digest = fold.Sum()
	return true
}

// positionsMatch reports whether pos names, for each build tuple in
// order, a distinct verified position holding a byte-identical tuple, and
// every position once. A warm check allocates nothing.
func (st *integrityState) positionsMatch(parts [][]protocol.WireTuple, pos []int32) bool {
	n, built := 0, 0
	for _, v := range st.views {
		n += len(v)
	}
	for _, p := range parts {
		built += len(p)
	}
	if len(pos) != n || built != n {
		return false
	}
	if st.viewOf == nil {
		st.viewOf, st.viewStart, st.seen = make([]int32, 0, n), make([]int32, len(st.views)), make([]uint64, (n+63)/64)
		for v, view := range st.views {
			st.viewStart[v] = int32(len(st.viewOf))
			for range view {
				st.viewOf = append(st.viewOf, int32(v)) // within capacity
			}
		}
	}
	clear(st.seen)
	k := 0
	for _, part := range parts {
		for j := range part {
			i := uint32(pos[k]) // a negative position wraps past n
			if i >= uint32(n) || st.seen[i/64]&(1<<(i%64)) != 0 {
				return false
			}
			st.seen[i/64] |= 1 << (i % 64)
			if v := st.viewOf[i]; !sameTuple(&st.views[v][i-uint32(st.viewStart[v])], &part[j]) {
				return false
			}
			k++
		}
	}
	return true
}

// inOrder reports whether parts hold the verified covering result in
// deposit order, tuple for tuple. A partition that shares the store's
// backing bytes — as a deposit-order build does — costs one comparison of
// pointers and lengths per field (bytes.Equal returns at once on a shared
// array); any other is compared byte for byte.
func (st *integrityState) inOrder(parts [][]protocol.WireTuple) bool {
	views, j := st.views, 0
	for _, p := range parts {
		for k := range p {
			for len(views) > 0 && j == len(views[0]) {
				views, j = views[1:], 0
			}
			if len(views) == 0 || !sameTuple(&views[0][j], &p[k]) {
				return false
			}
			j++
		}
	}
	for _, v := range views {
		j -= len(v) // down to zero when the build reached every verified tuple
	}
	return j == 0
}

// leafFanOutBytes is the least the deposits must hold to go to the workers.
// A second core takes ~100 µs to wake on the benchmark's 2-core box, and
// HMAC-SHA256 runs at ~530 MB/s there: 150 deposits verified inline vs
// fanned out take 135 vs 174 µs at 31 KB, 190 vs 187 at 63 KB, 290 vs 265
// at 126 KB (inside the noise) and 489 vs 405 at 253 KB. The gate sits at
// the first size whose gain is clear, which also keeps the small queries
// of a multi-tenant mix — whose cores are busy with each other — inline.
const leafFanOutBytes = 256 << 10

// tupleSeed keys tupleHash for the life of the process. The hash only
// narrows a search to a bucket of the multiset index, and sameTuple then
// confirms every match byte for byte, so no result depends on the seed and
// it is not a security parameter: an SSI that could predict it could
// lengthen a chain, never pass a check.
var tupleSeed = maphash.MakeSeed()

// hashPrime (the 64-bit FNV prime) chains field hashes into a tuple hash,
// order-sensitively.
const hashPrime = 1099511628211

func tupleHash(w *protocol.WireTuple) uint64 {
	h := maphash.Bytes(tupleSeed, w.Tag)
	h = h*hashPrime ^ maphash.Bytes(tupleSeed, w.Ciphertext)
	return h*hashPrime ^ maphash.Bytes(tupleSeed, w.Digest)
}

// sameTuple is the identity of a wire tuple: every field, byte for byte,
// so (tag="ab", ct="c") and (tag="a", ct="bc") are different tuples.
func sameTuple(a, b *protocol.WireTuple) bool {
	return bytes.Equal(a.Ciphertext, b.Ciphertext) &&
		bytes.Equal(a.Tag, b.Tag) && bytes.Equal(a.Digest, b.Digest)
}

// multisetEqual reports whether the partitions hold exactly the input
// tuples — any order, any grouping, but the same multiset. Input is
// indexed in a hash table (head[bucket] starts a chain through next, both
// holding 1-based input positions, 0 ending the chain); each partition
// tuple must find a byte-identical input tuple on its bucket's chain and
// unlink it, so with the counts equal nothing was dropped, duplicated or
// substituted. The table is the run's scratch: a warm call allocates
// nothing.
func (st *integrityState) multisetEqual(input []protocol.WireTuple, parts [][]protocol.WireTuple) bool {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n != len(input) {
		return false
	}
	size := 1 << bits.Len(uint(n)) // a power of two above n: chains stay short
	if cap(st.head) < size {
		st.head, st.next = make([]int32, size), make([]int32, size)
	}
	head, next, mask := st.head[:size], st.next, uint64(size-1)
	clear(head)
	for i := range input {
		b := tupleHash(&input[i]) & mask
		next[i], head[b] = head[b], int32(i+1)
	}
	for _, p := range parts {
		for k := range p {
			link := &head[tupleHash(&p[k])&mask]
			for *link != 0 && !sameTuple(&input[*link-1], &p[k]) {
				link = &next[*link-1]
			}
			if *link == 0 {
				return false
			}
			*link = next[*link-1]
		}
	}
	return true
}
