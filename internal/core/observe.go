package core

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// engineObs bundles the engine's observability surface: the tracer that
// records one span tree per query, and the registry-backed instruments
// that accumulate across queries. The instruments with a Metrics source
// are fed once per run, by observe; the rest count events as they happen.
type engineObs struct {
	tracer  *obs.Tracer
	journal *obs.Journal
	reg     *obs.Registry

	queries       *obs.CounterVec // by protocol
	devices       *obs.CounterVec // collection outcomes per device
	tuples        *obs.CounterVec // accepted / true collection tuples
	bytes         *obs.CounterVec // by flow and direction
	retryWait     *obs.Counter
	reassigns     *obs.Counter
	coverage      *obs.Gauge
	dummyRatio    *obs.Gauge
	phaseSeconds  *obs.HistogramVec
	saggReduction *obs.Histogram
	depositTuples *obs.Histogram
	queriesFailed *obs.CounterVec // aborted runs, by reason
	integrity     *obs.CounterVec // verified-execution events, by kind
}

func newEngineObs() *engineObs {
	reg := obs.NewRegistry()
	return &engineObs{
		tracer:  obs.NewTracer(),
		journal: obs.NewJournal(),
		reg:     reg,
		queries: reg.CounterVec("tcq_queries_total",
			"queries executed, by protocol", "protocol"),
		devices: reg.CounterVec("tcq_collect_devices_total",
			"collection-phase device outcomes (accepted deposit, scripted fault, rejection, local error)",
			"outcome"),
		tuples: reg.CounterVec("tcq_collect_tuples_total",
			"collection tuples the SSI accepted, by kind (accepted = true + fake + dummy)", "kind"),
		bytes: reg.CounterVec("tcq_bytes_total",
			"ciphertext bytes moved, by flow (collect_up: deposits; phase_down/phase_up: partition traffic; deliver_down: final result)",
			"flow"),
		retryWait: reg.Counter("tcq_retry_wait_seconds_total",
			"simulated time the SSI spent waiting out timeouts and backoffs"),
		reassigns: reg.Counter("tcq_reassignments_total",
			"partitions re-issued after a worker death"),
		coverage: reg.Gauge("tcq_coverage_ratio",
			"deposited / eligible devices of the last collection"),
		dummyRatio: reg.Gauge("tcq_dummy_ratio",
			"share of non-true tuples in the last covering result"),
		phaseSeconds: reg.HistogramVec("tcq_phase_seconds",
			"simulated phase makespan (iterative S_Agg steps share one label)",
			[]float64{0.001, 0.01, 0.1, 1, 10, 100, 1000}, "phase"),
		saggReduction: reg.Histogram("tcq_sagg_reduction",
			"per-round partial reduction factor of S_Agg (the protocol's alpha)",
			[]float64{1, 1.5, 2, 3, 4, 6, 8, 16}),
		depositTuples: reg.Histogram("tcq_deposit_tuples",
			"wire tuples per accepted deposit",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		queriesFailed: reg.CounterVec("tcq_queries_failed_total",
			"runs aborted after execution started, by reason (timeout, coverage-floor, ssi-misbehavior, error)",
			"reason"),
		integrity: reg.CounterVec("tcq_integrity_events_total",
			"verified-execution events (check, violation, quarantine, recovered)",
			"kind"),
	}
}

// runState carries one query run's mutable context through the phases:
// the post, the run RNG, the Metrics being built, the fault plan, and the
// simulated clock that timestamps every span, event and ledger entry. All
// of it is a pure function of the request and the seeds, so everything
// derived from it is deterministic.
type runState struct {
	post    *protocol.QueryPost
	rng     *rand.Rand
	metrics *Metrics
	faults  *faultplan.Plan
	clock   *obs.SimClock
	workers int           // TDSs connected during aggregation/filtering phases (simulated P_TDS)
	crew    *crew         // the goroutines the run's waves, leaf MACs and phases execute on
	busy    time.Duration // summed busy time of the phases' work units; settle takes the mean

	// ssi is the service this run talks to: the engine's honest SSI, or
	// the per-query Adversary wrapping it when the fault plan scripts
	// infrastructure misbehavior. Everything on the run path goes through
	// it; only lifecycle cleanup (Drop) stays on the inner SSI.
	ssi ssi.Service
	// verify enables the commitment checks (Request.SkipVerify inverts).
	verify bool
	// integ is the verification context: deposit records, the running
	// digest, and the check tallies behind the IntegrityReport.
	integ *integrityState
	// phaseDevs are the phases' devices, one per crew worker (runPhase),
	// and cols the collection walk's collectors: the run's until it ends.
	phaseDevs []*tds.TDS
	cols      []*collector
	// Live-rotation context. rotScript is the fault plan's scripted
	// rotation (nil when none); commits counts committed deposit envelopes
	// in connection order — the worker-count-independent trigger clock the
	// script fires on; rotStarted is the commit count at which the scripted
	// rotation began. staleQ queues devices that connected while a torn
	// rollout left them unable to serve this query's epoch; they are
	// retried in original connection order once the walk completes.
	// verifier is the k2 committer of the epoch this query was posted at,
	// pinned at post time so a mid-run rotation cannot shift what the
	// engine verifies deposits and partition commitments against.
	rotScript  *faultplan.RotationScript
	commits    int
	rotStarted int
	staleQ     []collectDevice
	verifier   *tdscrypto.Committer
}

// beginPhaseScope opens one phase's span/journal pair at the current
// simulated instant. Every phase — collection, the aggregation steps,
// filtering, delivery — brackets itself through this helper and
// endPhaseScope, so a span can never be emitted without its journal
// counterpart (or vice versa).
func (e *Engine) beginPhaseScope(rs *runState, name string, party obs.Party, facts obs.CipherFacts) *obs.Span {
	sp := e.obs.tracer.StartChild(rs.post.ID, name, party, rs.clock.Now())
	e.obs.journal.Emit(rs.post.ID, obs.JournalEvent{
		Kind: obs.JournalPhaseStart, Phase: name, Party: party,
		At: rs.clock.Now(), Facts: facts,
	})
	return sp
}

// endPhaseScope closes the pair beginPhaseScope opened, at the current
// (usually advanced) simulated instant.
func (e *Engine) endPhaseScope(rs *runState, name string, party obs.Party, facts obs.CipherFacts) {
	e.obs.tracer.EndSpan(rs.post.ID, rs.clock.Now())
	e.obs.journal.Emit(rs.post.ID, obs.JournalEvent{
		Kind: obs.JournalPhaseEnd, Phase: name, Party: party,
		At: rs.clock.Now(), Facts: facts,
	})
}

// record appends le to the query's ledger at the SSI and mirrors it, at
// the same point in the run, as an SSI-party trace event and a ledger
// journal record with the same fields. Every ledger entry of a run passes
// through here, so the engine alone writes a query's record.
func (e *Engine) record(rs *runState, le ssi.LedgerEntry) {
	id := rs.post.ID
	rs.ssi.Record(id, le)
	facts := obs.CipherFacts{Attempt: le.Attempt, Wait: le.Wait}
	e.obs.tracer.SSIEvent(id, le.Kind, le.Device, le.At, facts)
	e.obs.journal.Emit(id, obs.JournalEvent{
		Kind: obs.JournalLedger, Phase: le.Phase, Party: obs.PartySSI,
		Device: le.Device, Detail: le.Kind, At: le.At, Facts: facts,
	})
}

// relay shows the SSI the tuples it relays between two phases and traces
// their ciphertext volume as an SSI-party event.
func (e *Engine) relay(rs *runState, tuples []protocol.WireTuple) {
	now := rs.clock.Now()
	rs.ssi.ObserveRelay(rs.post.ID, tuples, now)
	e.obs.tracer.SSIEvent(rs.post.ID, "relay", "", now, obs.CipherFacts{
		Tuples: len(tuples), Bytes: int64(protocol.TotalSize(tuples)),
	})
}

// startPhase opens the span of one aggregation/filtering phase and
// records the SSI-visible partitioning event (the SSI sees how many
// partitions it built and their ciphertext volume — nothing else). It
// returns the span and each partition's bytes.
func (e *Engine) startPhase(rs *runState, name string, parts [][]protocol.WireTuple) (*obs.Span, []int) {
	n, b, sizes := 0, 0, make([]int, len(parts))
	for i, p := range parts {
		sizes[i] = protocol.TotalSize(p)
		n, b = n+len(p), b+sizes[i]
	}
	facts := obs.CipherFacts{Count: len(parts), Tuples: n, Bytes: int64(b)}
	sp := e.beginPhaseScope(rs, name, obs.PartyEngine, facts)
	e.obs.tracer.SSIEvent(rs.post.ID, "partition", "", rs.clock.Now(), facts)
	return sp, sizes
}

// notePhase settles one finished phase: records its timing entry (work +
// retry waits; the SSI cannot hand out the next phase's partitions while
// it is still waiting out this one's stragglers), advances the simulated
// clock by its makespan, and closes the phase span at the new instant.
func (e *Engine) notePhase(rs *runState, name string, units []workUnit, ps phaseStats) {
	m := rs.metrics
	m.AuditDetections += len(ps.Suspects)
	m.Suspects = append(m.Suspects, ps.Suspects...)
	var down, up int64 // what the workers downloaded (partitions in) and uploaded
	durs := make([]time.Duration, len(units))
	for i, u := range units {
		durs[i], rs.busy = u.busy, rs.busy+u.busy
		down, up = down+int64(u.down), up+int64(u.up)
	}
	dur := netsim.Makespan(durs, rs.workers) + ps.Wait
	m.Phases = append(m.Phases, PhaseTiming{Name: name, Duration: dur, Units: len(units), Bytes: down + up})
	rs.clock.Advance(dur)
	e.endPhaseScope(rs, name, obs.PartyEngine, obs.CipherFacts{Count: len(units), Bytes: down + up})
	e.obs.bytes.With("phase_down").Add(float64(down))
	e.obs.bytes.With("phase_up").Add(float64(up))
}

// observe feeds the registry one settled run: every instrument whose
// count Metrics or its ledger holds (stale and revoked are the ledger's
// deposit-stale and deposit-revoked entries, which settle counts). An
// outcome series is touched only when it has something to add, so none
// renders a count no event made; every accepted deposit adds its tuple
// and byte counts, zero or not.
func (o *engineObs) observe(m *Metrics, stale, revoked int) {
	for _, c := range []struct {
		v     *obs.CounterVec
		label string
		n     int
	}{
		{o.devices, "accepted", m.DepositedDevices}, {o.devices, "offline", m.OfflineDevices},
		{o.devices, "error", m.CollectErrors}, {o.devices, "dropped", m.DroppedDeposits},
		{o.devices, "corrupt", m.CorruptDeposits}, {o.devices, "stale", stale}, {o.devices, "revoked", revoked},
		{o.integrity, "check", m.IntegrityChecks}, {o.integrity, "violation", m.IntegrityViolations},
		{o.integrity, "quarantine", m.IntegrityQuarantines}, {o.integrity, "recovered", m.IntegrityRecovered},
	} {
		if c.n != 0 {
			c.v.With(c.label).Add(float64(c.n))
		}
	}
	if m.DepositedDevices > 0 {
		o.tuples.With("accepted").Add(float64(m.Nt))
		o.tuples.With("true").Add(float64(m.TrueTuples))
		o.bytes.With("collect_up").Add(float64(m.CollectBytes))
	}
	o.retryWait.Add(m.RetryWait.Seconds())
	o.reassigns.Add(float64(m.Reassignments))
	for _, p := range m.Phases {
		o.phaseSeconds.With(phaseLabel(p.Name)).Observe(p.Duration.Seconds())
	}
}

// phaseLabel bounds metric label cardinality: the iterative S_Agg steps
// (s_agg-step-1, -2, ...) share one label; span names keep the exact
// step.
func phaseLabel(name string) string {
	if strings.HasPrefix(name, "s_agg-step-") {
		return "s_agg-step"
	}
	return name
}

// Registry exposes the engine's cumulative metrics registry; render it
// with WriteText for Prometheus-format scraping or -metrics-out files.
func (e *Engine) Registry() *obs.Registry { return e.obs.reg }

// finishRun is every exit of a run that started executing: it settles
// the run, closes every span still open at the run's last instant, ends
// the journal and returns the Response. A failed run (err != nil) carries
// no rows but full observability: its reason lands in the failure counter
// and ends the ledger and the journal. A run that delivered rows gets its
// conformance report, also on the root span.
func (e *Engine) finishRun(rs *runState, root *obs.Span, res *sqlexec.Result, err error) (*Response, error) {
	id := rs.post.ID
	end := obs.JournalEvent{Kind: obs.JournalQueryEnd, Party: obs.PartyEngine, Detail: "ok"}
	if err != nil {
		end.Kind, end.Detail = obs.JournalAbort, abortReason(err)
		e.obs.queriesFailed.With(end.Detail).Inc()
		e.record(rs, ssi.LedgerEntry{Kind: "query-abort", Phase: end.Detail, At: rs.clock.Now()})
	}
	rs.settle(e.obs)
	var conf *ConformanceReport
	if res != nil {
		end.Facts.Count = len(res.Rows)
		if conf = e.conformance(rs); conf != nil {
			// Deterministic model check: predicted T_Q and the
			// measured/predicted ratio, both pure functions of the run.
			root.SetAttr("tq_model", conf.PredictedTQ.String()).
				SetAttr("tq_ratio", strconv.FormatFloat(conf.Ratio, 'f', 3, 64))
		}
	}
	end.At = rs.clock.Now()
	e.obs.tracer.CloseAll(id, end.At)
	e.obs.journal.Emit(id, end)
	return &Response{Result: res, Metrics: rs.metrics, Trace: e.obs.tracer.Take(id),
		Integrity: rs.integrityReport(), Journal: e.obs.journal.Take(id), Conformance: conf}, err
}

// abortReason classifies an abort for the failure counter's label.
func abortReason(err error) string {
	var mis *ErrSSIMisbehavior
	switch {
	case errors.Is(err, ErrQueryTimeout):
		return "timeout"
	case errors.Is(err, ErrCoverageBelowFloor):
		return "coverage-floor"
	case errors.As(err, &mis):
		return "ssi-misbehavior"
	}
	return "error"
}

// recordCollectError accounts a device that connected but could not
// answer (stale key epoch, local fault). The SSI never saw it, so the
// event is engine-side only.
func (e *Engine) recordCollectError(rs *runState, d collectDevice, now time.Time) {
	rs.metrics.CollectErrors++
	e.obs.tracer.EngineEvent(rs.post.ID, "collect-error", d.id, now, obs.CipherFacts{Attempt: 1})
}
