package core

import (
	"errors"
	"math/rand"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// engineObs bundles the engine's observability surface: the tracer that
// records one span tree per query, and the registry-backed instruments
// that accumulate across queries. core.Metrics stays the per-run
// compatibility snapshot; the registry is the cumulative view.
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
	abandoned     *obs.Counter
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
	journal := obs.NewJournal()
	journal.SetOpenGauge(reg.Gauge("tcq_journal_open_streams",
		"journal streams begun but not yet taken or discarded"))
	return &engineObs{
		tracer:  obs.NewTracer(),
		journal: journal,
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
		abandoned: reg.Counter("tcq_partitions_abandoned_total",
			"partitions dropped after the fault plan's MaxAttempts"),
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
// the post, the run RNG, the metrics snapshot being built, the fault
// plan, and the simulated clock that timestamps every span, event and
// ledger entry. All of it is a pure function of the request and the
// seeds, so everything derived from it is deterministic.
type runState struct {
	post    *protocol.QueryPost
	rng     *rand.Rand
	metrics *Metrics
	faults  *faultplan.Plan
	clock   *obs.SimClock
	workers int   // TDSs connected during aggregation/filtering phases (simulated P_TDS)
	crew    *crew // the goroutines the run's waves, leaf MACs and phases execute on

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
	// devs caches the devices the aggregation/filtering phases
	// materialized from a packed fleet, so repeated worker draws pay the
	// unpack once per run. Collection never touches it.
	devs map[int]*tds.TDS
	// slab recycles deposit envelopes across collection waves instead of
	// allocating one per device.
	slab protocol.DepositSlab
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
	// roll accumulates the per-wave trace rollups when TraceSampleRate is
	// fractional; nil at the full-tracing default.
	roll *collectRollup
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

// startPhase opens the span of one aggregation/filtering phase and
// records the SSI-visible partitioning event (the SSI sees how many
// partitions it built and their ciphertext volume — nothing else).
func (e *Engine) startPhase(rs *runState, name string, parts [][]protocol.WireTuple) *obs.Span {
	n, b := 0, 0
	for _, p := range parts {
		n += len(p)
		b += protocol.TotalSize(p)
	}
	facts := obs.CipherFacts{Count: len(parts), Tuples: n, Bytes: int64(b)}
	sp := e.beginPhaseScope(rs, name, obs.PartyEngine, facts)
	e.obs.tracer.SSIEvent(rs.post.ID, "partition", "", rs.clock.Now(), facts)
	return sp
}

// notePhase settles one finished phase: folds its stats into the
// metrics snapshot, advances the simulated clock by the phase makespan
// (work + retry waits), closes the phase span at the new instant, and
// feeds the registry.
func (e *Engine) notePhase(rs *runState, name string, units []workUnit, ps phaseStats) {
	rs.metrics.applyPhaseStats(ps)
	down, up := unitBytesInOut(units)
	rs.metrics.addNamedPhase(name, unitDurations(units), rs.workers, down+up, ps.Wait)
	rs.metrics.LoadBytes += down + up
	dur := rs.metrics.Phases[len(rs.metrics.Phases)-1].Duration
	rs.clock.Advance(dur)
	e.endPhaseScope(rs, name, obs.PartyEngine, obs.CipherFacts{Count: len(units), Bytes: down + up})
	e.obs.phaseSeconds.With(phaseLabel(name)).Observe(dur.Seconds())
	e.obs.bytes.With("phase_down").Add(float64(down))
	e.obs.bytes.With("phase_up").Add(float64(up))
	e.obs.retryWait.Add(ps.Wait.Seconds())
	e.obs.reassigns.Add(float64(ps.Reassigned))
	e.obs.abandoned.Add(float64(ps.Abandoned))
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

// unitBytesInOut splits a phase's traffic into what the workers
// downloaded (partitions in) and uploaded (outputs back to the SSI).
func unitBytesInOut(units []workUnit) (down, up int64) {
	for _, u := range units {
		down += int64(protocol.TotalSize(u.partition))
		up += int64(protocol.TotalSize(u.out))
	}
	return down, up
}

// Registry exposes the engine's cumulative metrics registry; render it
// with WriteText for Prometheus-format scraping or -metrics-out files.
func (e *Engine) Registry() *obs.Registry { return e.obs.reg }

// abortRun settles a run that failed after execution started: the abort
// reason lands in the failure counter and the recovery ledger, the
// metrics snapshot is completed from the SSI's state, and every open
// span is closed so the returned trace is well-formed. The Response it
// returns carries no rows but full observability — Execute hands both
// the Response and the error to the caller.
func (e *Engine) abortRun(rs *runState, err error) (*Response, error) {
	id := rs.post.ID
	reason := abortReason(err)
	e.obs.queriesFailed.With(reason).Inc()
	rs.ssi.Record(id, ssi.LedgerEntry{Kind: "query-abort", Phase: reason, At: rs.clock.Now()})
	rs.metrics.Observation = rs.ssi.ObservationFor(id)
	rs.metrics.LoadBytes += rs.ssi.BytesStored(id)
	rs.metrics.Ledger = rs.ssi.LedgerFor(id)
	e.obs.tracer.CloseAll(id, rs.clock.Now())
	e.obs.journal.Emit(id, obs.JournalEvent{
		Kind: obs.JournalAbort, Party: obs.PartyEngine, Detail: reason,
		At: rs.clock.Now(),
	})
	return &Response{
		Metrics:   rs.metrics,
		Trace:     e.obs.tracer.Take(id),
		Integrity: rs.integrityReport(),
		Journal:   e.obs.journal.Take(id),
	}, err
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
	if e.sampled(d.id) {
		e.obs.tracer.EngineEvent(rs.post.ID, "collect-error", d.id, now, obs.CipherFacts{Attempt: 1})
	}
	e.noteRollup(rs, false, 0, 0, now)
	e.obs.devices.With("error").Inc()
}

// sampled decides whether one device's collection events enter the trace:
// a pure function of (device ID, Config.TraceSampleRate), so the sampled
// trace is as deterministic as the full one. Rate 0 keeps everything.
func (e *Engine) sampled(device string) bool {
	return obs.SampleDevice(device, e.cfg.TraceSampleRate)
}
