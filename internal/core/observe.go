package core

import (
	"errors"
	"math/rand"
	"strconv"
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
	// rotation (nil when none); rotating turns the walk's stale rule on
	// (collectionPhase); commits counts committed deposit envelopes
	// in connection order — the worker-count-independent trigger clock the
	// script fires on; rotStarted is the commit count at which the scripted
	// rotation began. staleQ queues devices that connected while a torn
	// rollout left them unable to serve this query's epoch; they are
	// retried in original connection order once the walk completes.
	// verifier is the k2 committer of the epoch this query was posted at,
	// pinned at post time so a mid-run rotation cannot shift what the
	// engine verifies deposits and partition commitments against.
	rotScript  *faultplan.RotationScript
	rotating   bool
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
	sp := e.tracer.StartChild(rs.post.ID, name, party, rs.clock.Now())
	e.journal.Emit(rs.post.ID, obs.JournalEvent{
		Kind: obs.JournalPhaseStart, Phase: name, Party: party,
		At: rs.clock.Now(), Facts: facts,
	})
	return sp
}

// endPhaseScope closes the pair beginPhaseScope opened, at the current
// (usually advanced) simulated instant.
func (e *Engine) endPhaseScope(rs *runState, name string, party obs.Party, facts obs.CipherFacts) {
	e.tracer.EndSpan(rs.post.ID, rs.clock.Now())
	e.journal.Emit(rs.post.ID, obs.JournalEvent{
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
	e.tracer.SSIEvent(id, le.Kind, le.Device, le.At, facts)
	e.journal.Emit(id, obs.JournalEvent{
		Kind: obs.JournalLedger, Phase: le.Phase, Party: obs.PartySSI,
		Device: le.Device, Detail: le.Kind, At: le.At, Facts: facts,
	})
}

// relay shows the SSI the tuples it relays between two phases and traces
// their ciphertext volume as an SSI-party event.
func (e *Engine) relay(rs *runState, tuples []protocol.WireTuple) {
	now := rs.clock.Now()
	rs.ssi.ObserveRelay(rs.post.ID, tuples, now)
	e.tracer.SSIEvent(rs.post.ID, "relay", "", now, obs.CipherFacts{
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
	e.tracer.SSIEvent(rs.post.ID, "partition", "", rs.clock.Now(), facts)
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
	var bytes int64 // what the workers downloaded (partitions in) and uploaded
	durs := make([]time.Duration, len(units))
	for i, u := range units {
		durs[i], rs.busy = u.busy, rs.busy+u.busy
		bytes += int64(u.down + u.up)
	}
	dur := netsim.Makespan(durs, rs.workers) + ps.Wait
	m.Phases = append(m.Phases, PhaseTiming{Name: name, Duration: dur, Units: len(units), Bytes: bytes})
	rs.clock.Advance(dur)
	e.endPhaseScope(rs, name, obs.PartyEngine, obs.CipherFacts{Count: len(units), Bytes: bytes})
}

// finishRun is every exit of a run that started executing: it settles
// the run, closes every span still open at the run's last instant, ends
// the journal and returns the Response. A failed run (err != nil) carries
// no rows but full observability: its reason ends the ledger (a
// query-abort entry) and the journal (an abort event). A run that
// delivered rows gets its conformance report, also on the root span.
func (e *Engine) finishRun(rs *runState, root *obs.Span, res *sqlexec.Result, err error) (*Response, error) {
	id := rs.post.ID
	end := obs.JournalEvent{Kind: obs.JournalQueryEnd, Party: obs.PartyEngine, Detail: "ok"}
	if err != nil {
		end.Kind, end.Detail = obs.JournalAbort, abortReason(err)
		e.record(rs, ssi.LedgerEntry{Kind: "query-abort", Phase: end.Detail, At: rs.clock.Now()})
	}
	rs.settle()
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
	e.tracer.CloseAll(id, end.At)
	e.journal.Emit(id, end)
	return &Response{Result: res, Metrics: rs.metrics, Trace: e.tracer.Take(id),
		Integrity: rs.integrityReport(), Journal: e.journal.Take(id), Conformance: conf}, err
}

// abortReason classifies an abort for its query-abort ledger entry and
// journal event.
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
	e.tracer.EngineEvent(rs.post.ID, "collect-error", d.id, now, obs.CipherFacts{Attempt: 1})
}
