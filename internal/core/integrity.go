package core

import (
	"encoding/binary"

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
// may not drop, duplicate or substitute any of it), and the per-partition
// commitments fold into the running digest. Finally the claimed coverage
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
	records  []depositRecord
	digest   []byte // folded commitment over everything verified so far
	deposits int    // deposit commitments verified
	phases   int    // partition builds verified
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
	// Phases is how many partition builds were multiset-verified.
	Phases int
	// Checks, Violations, Quarantines and Recovered mirror the Metrics
	// counters of the same names.
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

// noteCheck accounts one verification step.
func (e *Engine) noteCheck(rs *runState) {
	rs.metrics.IntegrityChecks++
	e.obs.integrity.With("check").Inc()
}

// integrityViolation accounts one failed check and returns the typed
// detection error. The ledger entry makes the detection visible in
// Metrics.Ledger and, through the SSI's trace mirror, in Response.Trace.
func (e *Engine) integrityViolation(rs *runState, kind, phase string) *ErrSSIMisbehavior {
	rs.metrics.IntegrityViolations++
	e.obs.integrity.With("violation").Inc()
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
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
	id := rs.post.ID

	total := 0
	for _, r := range rs.integ.records {
		total += r.accepted
	}
	e.noteCheck(rs)
	if total != rs.ssi.CollectedCount(id) {
		return e.integrityViolation(rs, "covering-count", "collection")
	}

	// The walk streams: each record's window of the stored sequence is
	// fetched on its own and its commitment folds straight into the
	// collection root, so verification never holds the covering result
	// in one slice. The folded digest is byte-identical to the old
	// collect-all-leaves Fold.
	fold := rs.verifier.StartFold("collection-root")
	off := 0
	for _, r := range rs.integ.records {
		slice := rs.ssi.CollectedRange(id, off, off+r.accepted)
		off += r.accepted
		// Each record answers to the committer of the epoch it deposited
		// under — across a rotation boundary the covering result holds
		// both epochs' deposits, each verifiable only with its own k2.
		want := protocol.DepositCommitment(e.committerFor(r.epoch), id, r.device, r.attempt, r.epoch, slice)
		e.noteCheck(rs)
		if !tdscrypto.CommitEqual(r.commit, want) {
			fold.Discard()
			return e.integrityViolation(rs, "deposit-commitment", "collection")
		}
		fold.Add(want)
	}
	rs.integ.deposits = len(rs.integ.records)

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
	e.noteCheck(rs)
	if timeouts != rs.metrics.DroppedDeposits || corrupt != rs.metrics.CorruptDeposits {
		fold.Discard()
		return e.integrityViolation(rs, "coverage-account", "collection")
	}

	rs.integ.digest = fold.Sum()
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

// buildVerified obtains one partition build and verifies it is a
// permutation of its input before any TDS processes it. A failed check
// quarantines the build and retries once through the SSI's stashed
// (pre-tamper) build — the graceful-degradation path, which recovers the
// honest result bit-for-bit because the stash needed no fresh RNG draws.
// A retry that fails again aborts the run with the typed error.
func (e *Engine) buildVerified(rs *runState, phase string, input []protocol.WireTuple,
	build func() [][]protocol.WireTuple) ([][]protocol.WireTuple, error) {
	parts := build()
	if !rs.verify {
		return parts, nil
	}
	rs.integ.phases++
	e.noteCheck(rs)
	if multisetEqual(input, parts) {
		rs.integ.fold(rs.verifier, phase, parts)
		return parts, nil
	}
	verr := e.integrityViolation(rs, "partition-multiset", phase)
	rs.metrics.IntegrityQuarantines++
	e.obs.integrity.With("quarantine").Inc()
	rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
		Kind: "integrity-quarantine", Phase: phase, At: rs.clock.Now(),
	})
	retry := rs.ssi.Repartition(rs.post.ID)
	e.noteCheck(rs)
	if retry != nil && multisetEqual(input, retry) {
		rs.metrics.IntegrityRecovered++
		e.obs.integrity.With("recovered").Inc()
		rs.ssi.Record(rs.post.ID, ssi.LedgerEntry{
			Kind: "integrity-recovered", Phase: phase, At: rs.clock.Now(),
		})
		rs.integ.fold(rs.verifier, phase, retry)
		return retry, nil
	}
	return nil, verr
}

// fold extends the run digest with one verified partition build: each
// partition is committed individually and the partition commitments fold
// under the previous digest, Merkle-style, so the final digest pins the
// exact content and grouping of every phase. The fold streams —
// StartFold/Add/Sum over the same children is byte-identical to the
// one-shot Fold — so a pipelined build folds partition by partition
// without ever materializing the children slice.
func (st *integrityState) fold(c *tdscrypto.Committer, phase string, parts [][]protocol.WireTuple) {
	fold := c.StartFold("phase/" + phase)
	fold.Add(st.digest)
	for _, p := range parts {
		segs := make([][]byte, 0, 3*len(p))
		for _, w := range p {
			segs = append(segs, w.Tag, w.Ciphertext, w.Digest)
		}
		fold.Add(c.Commit("partition/"+phase, segs...))
	}
	st.digest = fold.Sum()
}

// tupleKey is the multiset identity of one wire tuple: every field,
// length-framed, so (tag="ab", ct="c") and (tag="a", ct="bc") collide on
// nothing.
func tupleKey(w protocol.WireTuple) string {
	b := make([]byte, 0, 16+len(w.Tag)+len(w.Ciphertext)+len(w.Digest))
	b = binary.AppendUvarint(b, uint64(len(w.Tag)))
	b = append(b, w.Tag...)
	b = binary.AppendUvarint(b, uint64(len(w.Ciphertext)))
	b = append(b, w.Ciphertext...)
	b = append(b, w.Digest...)
	return string(b)
}

// multisetEqual reports whether the partitions hold exactly the input
// tuples — any order, any grouping, but the same multiset.
func multisetEqual(input []protocol.WireTuple, parts [][]protocol.WireTuple) bool {
	m := make(map[string]int, len(input))
	for _, w := range input {
		m[tupleKey(w)]++
	}
	n := 0
	for _, p := range parts {
		for _, w := range p {
			k := tupleKey(w)
			if m[k] == 0 {
				return false
			}
			m[k]--
			n++
		}
	}
	return n == len(input)
}
