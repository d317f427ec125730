package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/trustedcells/tcq/internal/histogram"
	"github.com/trustedcells/tcq/internal/netsim"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tds"
)

// run drives the three phases of the generic protocol (Fig. 2) for one
// Request: collection, aggregation (absent for plain Select-From-Where),
// filtering. It is the single execution path behind Execute. Along the
// way it grows the query's span tree: a root "execute" span, one child
// per phase, and per-device events — all timestamped with the simulated
// clock, so the trace is bit-identical across worker counts.
func (e *Engine) run(ctx context.Context, req Request) (*Response, error) {
	if e.fleet.size() == 0 {
		return nil, fmt.Errorf("%w: the fleet is empty", ErrNoEligibleTDS)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		return nil, err
	}
	if !req.CollectOnly {
		if !stmt.IsAggregate() && req.Kind != protocol.KindBasic {
			return nil, fmt.Errorf("core: %v requires an aggregate query; use Basic for Select-From-Where", req.Kind)
		}
		if stmt.IsAggregate() && req.Kind == protocol.KindBasic {
			return nil, fmt.Errorf("core: aggregate queries need an aggregation protocol, not Basic")
		}
	}

	qid := req.QueryID
	if qid == "" {
		qid = e.nextQueryID()
	}
	post, err := req.Querier.BuildPost(qid, req.SQL, req.Kind, req.Params)
	if err != nil {
		return nil, err
	}
	post.Targets = req.Targets
	post.Epoch = e.enterEpoch()
	defer e.leaveEpoch(post.Epoch) // first in, so it runs once the run has settled
	// The run talks to the honest SSI — or, when the fault plan scripts
	// infrastructure misbehavior, to a per-query Adversary wrapping it.
	// The adversary's strike points depend only on (fault seed, query ID),
	// so adversarial runs are as reproducible as honest ones.
	var svc ssi.Service = e.ssi
	if req.Faults != nil && req.Faults.SSI != nil {
		svc = ssi.NewAdversary(e.ssi, req.Faults.SSI, req.Faults.Seed, post.ID)
	}
	rs := &runState{
		post:    post,
		rng:     rng.New(e.cfg.Seed, post.ID, rng.Run),
		metrics: &Metrics{Protocol: req.Kind},
		faults:  req.Faults,
		clock:   obs.NewSimClock(obs.SimOrigin()),
		workers: e.availableWorkers(),
		crew:    &crew{n: e.collectWorkers()},
		ssi:     svc,
		verify:  !req.SkipVerify,
		integ:   &integrityState{},
		// The verifier is pinned to the epoch this query posts at: a
		// rotation striking mid-run must not move the goalposts the
		// engine verifies deposit and partition commitments against.
		verifier: e.committerFor(post.Epoch),
	}
	if req.Faults != nil {
		rs.rotScript = req.Faults.Rotation
	}
	metrics := rs.metrics
	defer e.release(rs) // last: after the SSI drops the query
	defer rs.crew.stop()

	if err := rs.ssi.PostQuery(post, rs.clock.Now()); err != nil {
		return nil, err
	}
	defer e.ssi.Drop(post.ID)
	defer e.planCache.Drop(post.ID)

	// Distribution discovery runs first (its sub-query owns its own
	// trace), so the root span covers only this query's own phases.
	cfgTpl, err := e.collectInputs(ctx, req.Querier, stmt, req.Kind, req.Params)
	if err != nil {
		return nil, err
	}

	tr := e.obs.tracer
	jr := e.obs.journal
	root := tr.StartQuery(post.ID, "execute", rs.clock.Now())
	root.SetAttr("protocol", req.Kind.String())
	defer tr.Discard(post.ID) // no-op when the trace was taken
	jr.Begin(post.ID)
	jr.Emit(post.ID, obs.JournalEvent{
		Kind: obs.JournalQueryStart, Party: obs.PartyEngine,
		Detail: req.Kind.String(), At: rs.clock.Now(),
	})
	defer jr.Discard(post.ID) // no-op when the journal was taken
	e.obs.queries.With(req.Kind.String()).Inc()

	e.beginPhaseScope(rs, "collect", obs.PartyEngine, obs.CipherFacts{})
	if err := e.collectionPhase(ctx, rs, cfgTpl); err != nil {
		return e.finishRun(rs, root, nil, err)
	}
	e.endPhaseScope(rs, "collect", obs.PartyEngine,
		obs.CipherFacts{Tuples: int(metrics.Nt), Bytes: metrics.CollectBytes})
	e.obs.coverage.Set(metrics.CoverageRatio)
	if metrics.Nt > 0 {
		e.obs.dummyRatio.Set(float64(metrics.Nt-metrics.TrueTuples) / float64(metrics.Nt))
	}

	// The covering result is settled: verify it against the deposit
	// commitments before any TDS aggregates a single tuple.
	if err := e.verifyCollection(rs); err != nil {
		return e.finishRun(rs, root, nil, err)
	}

	if req.CollectOnly {
		return e.finishRun(rs, root, nil, nil)
	}

	finalTuples, err := e.aggregateAndFilter(ctx, rs, stmt)
	if err != nil {
		return e.finishRun(rs, root, nil, err)
	}

	// Final delivery: the querier downloads and decrypts the result. The
	// delivery span advances the simulated clock but not TQ (the paper's
	// T_Q ends when the filtered result is ready at the SSI).
	dspan := e.beginPhaseScope(rs, "deliver", obs.PartyQuerier, obs.CipherFacts{})
	res, err := req.Querier.DecryptResult(post, finalTuples)
	if err != nil {
		return e.finishRun(rs, root, nil, err)
	}
	outBytes := protocol.TotalSize(finalTuples)
	var mtr netsim.Meter
	mtr.AddDownload(e.cal, outBytes)
	mtr.AddDecrypt(e.cal, outBytes)
	rs.clock.Advance(mtr.Total())
	dspan.SetAttr("rows", strconv.Itoa(len(res.Rows))).
		SetAttr("bytes", strconv.Itoa(outBytes))
	e.endPhaseScope(rs, "deliver", obs.PartyQuerier,
		obs.CipherFacts{Count: len(res.Rows), Bytes: int64(outBytes)})
	e.obs.bytes.With("deliver_down").Add(float64(outBytes))

	return e.finishRun(rs, root, res, nil)
}

// release gives back a run's phase devices and collectors, their arenas
// released, once the engine's own *ssi.SSI has dropped the query and so
// ended every use of its tuples. An injected Service may keep tuples past
// Drop (a recorder replaying deposits): that run's memory goes to the GC.
func (e *Engine) release(rs *runState) {
	if _, own := e.ssi.(*ssi.SSI); !own {
		return
	}
	for _, t := range rs.phaseDevs {
		t.Forget()
	}
	for _, c := range rs.cols {
		c.arena.Release()
	}
	e.folders.put(rs.phaseDevs)
	e.collectors.put(rs.cols)
}

// collectInputs assembles the per-protocol collection-phase inputs: the
// A_G domain for the tagged protocols (ED_Hist's per-group emission reads
// its Det_Enc tag table), and the equi-depth histogram for ED_Hist. Both
// come from the distribution-discovery process (Section 4.4), run once
// and cached.
func (e *Engine) collectInputs(ctx context.Context, q *querier.Querier, stmt *sqlparse.SelectStmt,
	kind protocol.Kind, params protocol.Params) (tds.CollectConfig, error) {
	var cfgTpl tds.CollectConfig
	switch kind {
	case protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist:
		disc, err := e.discoverDistribution(ctx, q, stmt)
		if err != nil {
			return cfgTpl, err
		}
		cfgTpl.Domain = disc.domain
		if kind != protocol.KindEDHist {
			break
		}
		m := params.NumBuckets
		if m <= 0 {
			h := params.CollisionFactor
			if h <= 0 {
				h = 5 // the paper's experiment default
			}
			m = max(int(float64(len(disc.domain))/h+0.5), 1)
		}
		hist, err := histogram.Build(disc.counts, m)
		if err != nil {
			return cfgTpl, err
		}
		cfgTpl.Hist = hist
	}
	return cfgTpl, nil
}

// perPartitionTuples derives how many wire tuples of avg bytes (64 when
// avg < 1) fit the calibrated streaming unit (4 KB partitions in the unit
// test). A first step over the covering result sizes with the
// calibration's nominal tuple size, later ones with the measured average
// of the tuples in hand.
func (e *Engine) perPartitionTuples(params protocol.Params, avg int) int {
	if params.PartitionTuples > 0 {
		return params.PartitionTuples
	}
	if avg < 1 {
		avg = 64
	}
	return max(e.cal.PartitionSize/avg, 2)
}

// aggregateAndFilter runs the protocol-specific aggregation phase followed
// by the filtering phase and returns the k1-encrypted final tuples.
func (e *Engine) aggregateAndFilter(ctx context.Context, rs *runState, stmt *sqlparse.SelectStmt) ([]protocol.WireTuple, error) {
	post := rs.post
	switch post.Kind {
	case protocol.KindBasic:
		// Filtering phase only: deposit-order windows of the covering
		// result, each filtered by a TDS (steps 9-12). Deposit order is
		// itself a random permutation of the fleet walk, so the windows
		// need no explicit shuffle.
		per := e.perPartitionTuples(post.Params, e.cal.TupleSize)
		out, _, err := e.runPhase(ctx, rs, "filter-sfw", nil, func() ([][]protocol.WireTuple, []int32) {
			return rs.ssi.StreamBuild(post.ID, per)
		}, nil, func(w *tds.TDS, p []protocol.WireTuple) ([]protocol.WireTuple, error) {
			return w.FilterSFW(post, p)
		})
		return out, err

	case protocol.KindSAgg:
		return e.runSAgg(ctx, rs, stmt)

	case protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist:
		return e.runTagged(ctx, rs, stmt)

	default:
		return nil, fmt.Errorf("core: unknown protocol %v", post.Kind)
	}
}

// runSAgg is the iterative secure aggregation of Section 4.2: random
// partitions, each folded by a TDS into one partial aggregation, repeated
// with reduction factor α until a single partial remains, then filtering.
func (e *Engine) runSAgg(ctx context.Context, rs *runState, stmt *sqlparse.SelectStmt) ([]protocol.WireTuple, error) {
	post, metrics := rs.post, rs.metrics
	alpha := post.Params.Alpha
	if alpha < 2 {
		alpha = 3.6 // α_op of Section 6.1.1
	}

	// First step: the calibrated streaming unit, capped at ~α*G tuples
	// (Section 4.2's first-step partitions); later steps: α partials each.
	// The first step partitions the covering result as it sits in the
	// SSI's chunked store — deposit-order windows, a random permutation
	// by construction of the fleet walk. Later steps partition relayed
	// partials (units), which never sit in the store, so they keep the
	// explicit shuffle.
	per := max(min(e.perPartitionTuples(post.Params, e.cal.TupleSize), int(alpha*float64(groupCountHint(stmt)))), 2)
	var units []protocol.WireTuple
	n := rs.ssi.CollectedCount(post.ID)
	if n <= 1 { // nothing to reduce: the covering result goes to filtering, whose build is checked
		units = rs.ssi.CollectedRange(post.ID, 0, n)
	}
	for first, forced := true, false; n > 1; first = false {
		name := fmt.Sprintf("s_agg-step-%d", len(metrics.Phases)+1)
		next, ps, err := e.runPhase(ctx, rs, name, units, func() ([][]protocol.WireTuple, []int32) {
			if first {
				return rs.ssi.StreamBuild(post.ID, per)
			}
			return rs.ssi.PartitionRandom(post.ID, units, per, rs.rng), nil
		}, nil, func(w *tds.TDS, p []protocol.WireTuple) ([]protocol.WireTuple, error) {
			return w.Aggregate(post, p, tds.EmitWhole)
		})
		if err != nil {
			return nil, err
		}
		e.relay(rs, next)
		if len(next) > 0 {
			// The round's achieved reduction factor — the protocol's
			// effective alpha, histogrammed across rounds and runs.
			e.obs.saggReduction.Observe(float64(n) / float64(len(next)))
			ps.span.SetAttr("reduction", fmt.Sprintf("%d->%d", n, len(next)))
		}
		units, per = next, max(int(alpha+0.5), 2)
		if len(next) >= n {
			// No progress (e.g., all-dummy partitions of size 1); force a
			// final merge in one partition. An honest one yields at most
			// one tuple; one that does not reduce is the SSI's doing.
			if forced {
				return nil, &ErrSSIMisbehavior{Kind: "no-progress", Phase: name}
			}
			per, forced = n+1, true
		}
		n = len(next)
	}

	// Filtering phase: the single final partial goes to one TDS which
	// applies HAVING and encrypts the result for the querier.
	return e.filterFinal(ctx, rs, stmt, units)
}

// runTagged drives the noise and histogram protocols: the SSI groups
// tuples by tag (Det_Enc(A_G) or h(bucketId)), a first aggregation step
// folds each partition into per-group partials, a second step completes
// each group, and the filtering phase applies HAVING.
func (e *Engine) runTagged(ctx context.Context, rs *runState, stmt *sqlparse.SelectStmt) ([]protocol.WireTuple, error) {
	post := rs.post
	per := e.perPartitionTuples(post.Params, e.cal.TupleSize)

	// First aggregation step: partitions hold tuples of one tag; large
	// groups split across n_NB partitions processed in parallel. The SSI
	// groups the store in place and names each build tuple's position.
	partials, _, err := e.runPhase(ctx, rs, "aggregate-1", nil, func() ([][]protocol.WireTuple, []int32) {
		return rs.ssi.StreamBuild(post.ID, per)
	}, nil, func(w *tds.TDS, p []protocol.WireTuple) ([]protocol.WireTuple, error) {
		return w.Aggregate(post, p, tds.EmitPerGroup)
	})
	if err != nil {
		return nil, err
	}
	e.relay(rs, partials)

	// Second aggregation step: per-group partitions (each tag is now
	// Det_Enc of one exact group) merged to completion.
	finals, _, err := e.runPhase(ctx, rs, "aggregate-2", partials, func() ([][]protocol.WireTuple, []int32) {
		return rs.ssi.PartitionByTag(post.ID, partials, 0), nil
	}, nil, func(w *tds.TDS, p []protocol.WireTuple) ([]protocol.WireTuple, error) {
		return w.Aggregate(post, p, tds.EmitPerGroup)
	})
	if err != nil {
		return nil, err
	}
	e.relay(rs, finals)

	return e.filterFinal(ctx, rs, stmt, finals)
}

// filterFinal is the filtering phase of the aggregate protocols: evaluate
// the HAVING clause over completed groups and deliver k1-encrypted result
// tuples (step 11 eliminates groups, not dummies). The phase runs at least
// one unit: an empty verified build becomes one empty partition. A global
// aggregate has one group, so one unit takes its whole verified build and
// yields its one row even over no partial (COUNT = 0, others NULL): the
// engine, not the SSI's partition count, decides which unit may emit that
// row, and empty partitions padding the build add none.
func (e *Engine) filterFinal(ctx context.Context, rs *runState, stmt *sqlparse.SelectStmt,
	finals []protocol.WireTuple) ([]protocol.WireTuple, error) {
	post, global := rs.post, len(stmt.GroupBy) == 0
	out, ps, err := e.runPhase(ctx, rs, "filtering", finals, func() ([][]protocol.WireTuple, []int32) {
		avg := (protocol.TotalSize(finals) + len(finals)) / max(len(finals), 1) // mean size + 1; 0 for none
		return rs.ssi.PartitionRandom(post.ID, finals, e.perPartitionTuples(post.Params, avg), rs.rng), nil
	}, func(parts [][]protocol.WireTuple) [][]protocol.WireTuple {
		if len(parts) == 0 || global && len(parts) > 1 {
			return [][]protocol.WireTuple{slices.Concat(parts...)}
		}
		return parts
	}, func(w *tds.TDS, p []protocol.WireTuple) ([]protocol.WireTuple, error) {
		return w.FinalizeGroups(post, p, global)
	})
	if err != nil {
		return nil, err
	}
	// G: for the tagged protocols the filtering input is one partial per
	// group (the before-HAVING count); for S_Agg the input is whole-state
	// tuples whose group count only becomes visible in the emitted result
	// rows. The max covers both without a protocol switch. Each partition
	// counts once, however many audit replicas processed it.
	rs.metrics.Groups = max(ps.in, len(out))
	return out, nil
}

// groupCountHint guesses G for partition sizing: the engine cannot know G
// for S_Agg (that is the point of the protocol); a small constant is the
// conservative choice used by the SSI.
func groupCountHint(stmt *sqlparse.SelectStmt) int {
	if len(stmt.GroupBy) == 0 {
		return 1
	}
	return 16
}

// discovered is a cached distribution-discovery outcome. The entry lands
// in Engine.discovery before its sub-query runs; ready closes once counts
// and domain (or err) are settled, so concurrent queries needing the same
// distribution wait for one discovery run instead of racing N of them.
type discovered struct {
	counts map[string]int64
	domain []storage.Row
	err    error
	ready  chan struct{}
}

// discoverDistribution runs (or recalls) the distribution-discovery
// process of Section 4.4: a COUNT Group-By-A_G query over the fleet,
// executed with S_Agg (which needs no prior knowledge), yielding both the
// frequency map and the A_G domain. The result is cached: discovery "needs
// to be done only once and refreshed from time to time instead of being
// run for each query". The discovery sub-run inherits the caller's
// context but never its fault plan: it models an earlier, clean run.
func (e *Engine) discoverDistribution(ctx context.Context, q *querier.Querier, stmt *sqlparse.SelectStmt) (*discovered, error) {
	if len(stmt.GroupBy) == 0 {
		d := &discovered{counts: map[string]int64{"": 1}, domain: []storage.Row{{}}}
		return d, nil
	}
	cols := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		cols[i] = g.String()
	}
	tables := make([]string, len(stmt.From))
	for i, f := range stmt.From {
		tables[i] = f.String()
	}
	sig := strings.Join(tables, ",") + "|" + strings.Join(cols, ",")

	// Single flight per signature: the first query needing this
	// distribution claims the entry and runs the discovery sub-query;
	// concurrent queries wait on ready and share the outcome. A failed
	// discovery is handed to its waiters but not cached — the entry is
	// removed so a later query retries.
	e.mu.Lock()
	if d, ok := e.discovery[sig]; ok {
		e.mu.Unlock()
		<-d.ready
		if d.err != nil {
			return nil, d.err
		}
		return d, nil
	}
	d := &discovered{ready: make(chan struct{})}
	e.discovery[sig] = d
	e.mu.Unlock()
	defer close(d.ready)

	fail := func(err error) (*discovered, error) {
		d.err = err
		e.mu.Lock()
		delete(e.discovery, sig)
		e.mu.Unlock()
		return nil, err
	}

	sql := fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s",
		strings.Join(cols, ", "), strings.Join(tables, ", "), strings.Join(cols, ", "))
	// The sub-query's ID derives from the signature, not the engine's
	// sequence: whichever query triggers discovery, in whatever order,
	// the discovery run draws the same RNGs and leaves the same ledger.
	resp, err := e.Execute(ctx, Request{
		Querier: q, SQL: sql, Kind: protocol.KindSAgg, QueryID: "disc:" + sig})
	if err != nil {
		return fail(fmt.Errorf("core: distribution discovery: %w", err))
	}
	res := resp.Result
	d.counts = make(map[string]int64, len(res.Rows))
	for _, row := range res.Rows {
		group := row[:len(row)-1]
		count, err := row[len(row)-1].AsInt()
		if err != nil {
			return fail(fmt.Errorf("core: discovery count: %w", err))
		}
		d.counts[group.Key()] = count
		d.domain = append(d.domain, group.Clone())
	}
	if len(d.domain) == 0 {
		return fail(fmt.Errorf("core: distribution discovery found no groups"))
	}
	// Canonical domain order: fake-tuple draws index into the domain, so
	// its order must not depend on which engine (or how warmed a cache)
	// produced it.
	sort.Slice(d.domain, func(i, j int) bool {
		return d.domain[i].Key() < d.domain[j].Key()
	})
	return d, nil
}
