package core

import (
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
)

// Metrics reports what one protocol run cost, in the units of the paper's
// evaluation (Section 6.1). It is the run's one account: the engine tallies
// what only it knows along the way, and settle derives the rest once, at
// the end — PTDS, TQ, TLocal and LoadBytes from Phases, the recovery
// counters from Ledger — then feeds the registry behind Engine.Registry
// from it. The per-event detail lives in Response.Trace.
type Metrics struct {
	Protocol protocol.Kind
	// Nt is the number of wire tuples deposited during the collection
	// phase (true + fake + dummy), the cost model's N_t.
	Nt int64
	// TrueTuples counts only true collection tuples.
	TrueTuples int64
	// Groups is G, the number of distinct groups in the final result
	// before HAVING.
	Groups int
	// PTDS counts TDS participations in the aggregation and filtering
	// phases (the parallelism metric P_TDS).
	PTDS int
	// LoadBytes is Load_Q: total bytes moved through TDSs and stored at
	// the SSI across all phases.
	LoadBytes int64
	// CollectBytes is the ciphertext volume of the accepted deposits —
	// what the SSI watched arrive during collection. It calibrates the
	// cost model's s_t (CollectBytes / Nt) for the conformance report.
	CollectBytes int64
	// TQ is the simulated duration of the aggregation + filtering phases
	// (collection is application-dependent and excluded, as in the
	// paper).
	TQ time.Duration
	// TLocal is the average simulated busy time per TDS participation.
	TLocal time.Duration
	// Reassignments counts partitions re-issued after their assignee's
	// scripted crash: the ledger's reassign entries. Each is also a
	// timeout in Timeouts.
	Reassignments int
	// CollectErrors counts TDSs that connected but could not answer
	// (stale key epoch, local fault); the protocol proceeds without them.
	CollectErrors int
	// AuditDetections counts replicas outvoted by the digest comparison
	// when AuditReplicas > 1 — each is a partition on which some device
	// produced a result its peers disagreed with.
	AuditDetections int
	// Suspects lists the device IDs that produced outvoted results, with
	// repetition — feed them to Engine.RevokeAndRotate to expel repeat
	// offenders from the fleet.
	Suspects []string
	// EligibleDevices is how many TDSs the collection phase could have
	// reached: the whole fleet, or the target set of a personal-querybox
	// run.
	EligibleDevices int
	// DepositedDevices is how many of them committed a deposit the SSI
	// accepted before the SIZE condition closed the collection.
	DepositedDevices int
	// CoverageRatio is DepositedDevices / EligibleDevices — the exact share
	// of the reachable fleet represented in the covering result. Churn
	// (offline windows, dropped or corrupt deposits) and early SIZE cutoffs
	// both lower it; a fault plan's CoverageFloor turns a low ratio into
	// ErrCoverageBelowFloor.
	CoverageRatio float64
	// OfflineDevices counts eligible TDSs whose fault plan scripted an
	// offline window covering this query: they never connected.
	OfflineDevices int
	// DroppedDeposits counts deposits abandoned mid-transfer; the SSI
	// discarded each after the plan's DepositTimeout.
	DroppedDeposits int
	// CorruptDeposits counts envelopes the SSI rejected on their transport
	// checksum. It and DroppedDeposits stay engine tallies, not ledger
	// counts: verifyCollection holds the ledger to them.
	CorruptDeposits int
	// Timeouts counts every SSI-side timeout the run absorbed: dropped
	// deposits plus every crashed phase assignment (the ledger's reassign
	// entries) — including those of a phase the run aborted in, which has
	// no Phases entry.
	Timeouts int
	// RetryWait is the total simulated time the SSI spent waiting out
	// timeouts and backoffs: the sum of the ledger's waits. The share
	// incurred in aggregation/filtering phases that completed is also
	// folded into TQ; that of a phase the run aborted in is not, nor are
	// collection-phase deposit timeouts (collection time is excluded from
	// TQ, as in the paper).
	RetryWait time.Duration
	// IntegrityChecks counts verification steps of the verified execution
	// path: one per acknowledged deposit, per covering-count and
	// coverage-account reconciliation, and per partition build (retries
	// included). Zero when the request set SkipVerify.
	IntegrityChecks int
	// IntegrityViolations counts checks the SSI failed — each one a
	// detected protocol violation, never a silent skew.
	IntegrityViolations int
	// IntegrityQuarantines counts partition builds quarantined after a
	// failed multiset check.
	IntegrityQuarantines int
	// IntegrityRecovered counts quarantined builds whose verified retry
	// passed — graceful degradation that still delivered the honest
	// result. The four Integrity counters are the verifier's own tallies,
	// never read back from what the SSI stores.
	IntegrityRecovered int
	// Observation is the honest-but-curious SSI ledger for the run.
	Observation ssi.Observation
	// Ledger is the SSI's recovery audit trail: every deposit timeout,
	// rejected envelope and partition re-issue, in committed order —
	// deterministic for a fixed fault seed at any worker count.
	Ledger []ssi.LedgerEntry
	// Phases records the simulated duration of every aggregation /
	// filtering step in order (S_Agg contributes one entry per iterative
	// step). Collection is excluded, as in the paper's T_Q.
	Phases []PhaseTiming
}

// PhaseTiming is one phase's simulated makespan and work volume.
type PhaseTiming struct {
	Name     string
	Duration time.Duration
	Units    int // partitions processed (replicas included)
	Bytes    int64
}

// settle closes the run's account, once, on every exit path: it takes the
// SSI's observation, stored volume and ledger, derives the totals from
// Phases and the recovery counters from the ledger, and feeds the
// registry. Nothing else writes a derived field.
func (rs *runState) settle(o *engineObs) {
	m, id := rs.metrics, rs.post.ID
	m.Observation = rs.ssi.ObservationFor(id)
	m.Ledger = rs.ssi.LedgerFor(id)
	m.LoadBytes = rs.ssi.BytesStored(id)
	for _, p := range m.Phases {
		m.PTDS += p.Units
		m.TQ += p.Duration
		m.LoadBytes += p.Bytes
	}
	if m.PTDS > 0 {
		m.TLocal = rs.busy / time.Duration(m.PTDS)
	}
	// Every crash the SSI timed out is a reassign entry.
	m.Timeouts = m.DroppedDeposits
	stale, revoked := 0, 0
	for _, le := range m.Ledger {
		m.RetryWait += le.Wait
		switch le.Kind {
		case "reassign":
			m.Reassignments++
			m.Timeouts++
		case "deposit-stale":
			stale++
		case "deposit-revoked":
			revoked++
		}
	}
	o.observe(m, stale, revoked)
}
