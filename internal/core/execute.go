package core

import (
	"context"
	"fmt"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/sqlexec"
)

// Request is everything one query execution needs. The zero value of
// every optional field selects a plain global-querybox run.
type Request struct {
	// Querier issues the query and decrypts the result. Required.
	Querier *querier.Querier
	// SQL is the query text, including any SIZE clause. Required.
	SQL string
	// QueryID pins the run's query identifier. Empty lets the engine
	// allocate the next sequential ID. Pinning matters for determinism
	// under concurrency: every per-device and per-run RNG is seeded from
	// (engine seed, device ID, query ID), so a query with a fixed ID
	// produces bit-identical rows, metrics, ledgers and traces no matter
	// what else is in flight or in what order requests were admitted. An
	// ID still in flight is rejected: by Server.Submit at admission (also
	// while still queued there), by Execute at the SSI's duplicate post.
	QueryID string
	// Kind selects the protocol (Basic for Select-From-Where, an
	// aggregation protocol otherwise).
	Kind protocol.Kind
	// Params carries per-protocol tuning; the zero value selects the
	// paper's defaults.
	Params protocol.Params
	// Targets routes the query through the personal queryboxes of these
	// TDSs (Section 3.1). Empty means the global querybox.
	Targets []string
	// Faults scripts fleet churn for this run and sets the SSI's recovery
	// policy (timeouts, backoff, coverage floor). Nil injects nothing.
	Faults *faultplan.Plan
	// CollectOnly stops after the collection phase and returns a Response
	// with Metrics but no Result.
	CollectOnly bool
	// SkipVerify disables the verified execution path: no deposit
	// commitments are recorded, no partition build is multiset-checked,
	// and Response.Integrity is nil. The default (false) verifies — the
	// upgraded threat model where the SSI is weakly malicious rather than
	// honest-but-curious. Skipping is for benchmarks that must isolate
	// protocol cost from verification cost.
	SkipVerify bool
}

// Response is one execution's outcome.
type Response struct {
	// Result is the decrypted query result; nil for CollectOnly requests.
	Result *sqlexec.Result
	// Metrics reports what the run cost in the paper's units, plus the
	// availability account: coverage ratio, churn counters, and the SSI's
	// recovery ledger.
	Metrics *Metrics
	// Trace is the run's span tree, timestamped with the simulated clock:
	// one root `execute` span, one child per phase, per-device events for
	// deposits, retries and fault-script hits. Bit-identical across
	// CollectWorkers settings; serialize with Trace.WriteJSONL or render
	// with Trace.Summary.
	Trace *obs.QueryTrace
	// Integrity is the verified-execution report: how many commitments
	// and partition builds were checked, what was detected and recovered,
	// and the folded k2 digest over everything that entered aggregation.
	// Nil when the request set SkipVerify.
	Integrity *IntegrityReport
	// Journal is the run's structured event stream: admission, dispatch,
	// phase boundaries, recovery-ledger entries and the terminal outcome,
	// in canonical order. Byte-identical across CollectWorkers settings
	// and concurrency for a pinned QueryID; serialize with
	// Journal.WriteJSONL, validate with obs.CheckJournal.
	Journal *obs.QueryJournal
	// Conformance compares the run's measured T_Q and Load_Q against the
	// Section 6.1 cost model's predictions. Nil for CollectOnly runs and
	// aborted runs; Rnf_Noise with n_f left at 0 reports as R0_Noise.
	Conformance *ConformanceReport
}

// Execute runs one query end-to-end: collection, aggregation (for the
// Group-By protocols) and filtering, through the honest-but-curious SSI,
// under the fault plan's churn if one is given.
//
// ctx bounds the run: when it is canceled or its deadline passes, Execute
// aborts between protocol steps and returns an error matching
// errors.Is(err, ErrQueryTimeout).
//
// A run that aborts after execution started (coverage floor, context
// expiry, detected SSI misbehavior) returns the error together with a
// non-nil Response carrying the metrics, ledger and trace accumulated up
// to the abort — check the error before using Response.Result, which is
// nil on every failure.
func (e *Engine) Execute(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Querier == nil {
		return nil, fmt.Errorf("core: Request.Querier is required")
	}
	if req.SQL == "" {
		return nil, fmt.Errorf("core: Request.SQL is required")
	}
	return e.run(ctx, req)
}

// ctxErr reports a context expiry as the typed query-timeout sentinel, or
// nil while the context is live.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrQueryTimeout, err)
	}
	return nil
}
