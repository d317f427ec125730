package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"context"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/obs"
)

// The multi-tenant query server. An Engine executes one Request at a
// time from its caller's point of view; a Server sits in front of it and
// turns the same engine + fleet into a shared service: it admits,
// queues, and interleaves N in-flight queries over the one fleet, the
// way the paper's SSI serves many queriers at once (each device's
// connection wave answers every pending querybox, not just one query's).
//
// The scheduler is deliberately simple and fully observable:
//
//   - Admission: a bounded queue (ServerConfig.QueueDepth) with
//     per-querier caps taken from the credential's quota roles
//     (accessctl.QuotaPolicy). Over-cap submissions fail fast with
//     ErrServerBusy / ErrQuotaExceeded instead of building unbounded
//     backlog.
//   - Dispatch: weighted round-robin across queriers. Each turn admits
//     up to Quota.Weight of one querier's requests, so a heavy tenant
//     cannot starve a light one, then moves on. At most
//     ServerConfig.MaxInFlight queries execute concurrently.
//   - Sharing: in-flight queries run over the same fleet and the same
//     striped SSI (each query's state lives in its own stripe). A packed
//     fleet's devices are materialized per query, never shared.
//
// Determinism survives multi-tenancy: a Request that pins its QueryID
// produces bit-identical rows, metrics, ledgers and traces no matter
// what else is in flight, because every RNG on its path is seeded from
// (engine seed, device ID, query ID) and its SSI state is keyed by its
// own ID. The scheduler changes who waits, never what anyone computes.
var (
	// ErrServerClosed rejects submissions to a closed server.
	ErrServerClosed = errors.New("core: server closed")
	// ErrServerBusy rejects submissions when the global admission queue
	// is full — the server's backpressure signal.
	ErrServerBusy = errors.New("core: server admission queue full")
	// ErrQuotaExceeded rejects submissions over the querier's own
	// MaxQueued quota while the server still has room for others.
	ErrQuotaExceeded = errors.New("core: querier quota exceeded")
)

// ServerConfig sizes a Server. The zero value is usable: 4 in-flight
// queries, a queue of 64, no per-querier quotas beyond the defaults.
type ServerConfig struct {
	// MaxInFlight caps concurrently executing queries. 0 means 4.
	MaxInFlight int
	// QueueDepth caps waiting requests across all queriers. 0 means 64.
	QueueDepth int
	// Quotas maps credential roles to per-querier admission quotas. Nil
	// gives every querier the defaults (MaxInFlight/MaxQueued bounded
	// only by the server, Weight 1).
	Quotas *accessctl.QuotaPolicy
}

// Server fronts one Engine with admission control and a fair scheduler.
// Safe for concurrent use; Submit blocks until the request executes or
// is rejected.
type Server struct {
	eng *Engine
	cfg ServerConfig

	mu       sync.Mutex
	closed   bool
	inflight int
	queued   int
	tenants  map[string]*tenant
	order    []string // round-robin ring of querier IDs, arrival order
	rrPos    int
	wg       sync.WaitGroup

	admitted  int64
	rejected  int64
	completed int64

	// recent is a bounded ring of finished queries' traces and journals,
	// feeding the ops endpoint's /traces/<id> and journal-tail routes.
	recent   []retained
	recentAt int

	gInflight  *obs.Gauge
	gQueued    *obs.Gauge
	cAdmitted  *obs.CounterVec // by querier
	cRejected  *obs.CounterVec // by reason, querier
	cCompleted *obs.CounterVec // by outcome, querier
	hLatency   *obs.HistogramVec
	hQueueWait *obs.HistogramVec
}

// serverRetain bounds the trace/journal retention ring.
const serverRetain = 64

// tenantSampleCap bounds each tenant's latency sample windows.
const tenantSampleCap = 4096

// retained is one finished query's kept observability artifacts.
type retained struct {
	id      string
	trace   *obs.QueryTrace
	journal *obs.QueryJournal
}

// tenant is one querier's slice of the scheduler state.
type tenant struct {
	quota     accessctl.Quota
	inflight  int
	credit    int // admissions left in the current round-robin turn
	queue     []*pending
	completed int64
	simTQ     []float64 // sliding window of simulated TQ seconds
	qwait     []float64 // sliding window of wall queue-wait seconds
}

// pending is one submitted request waiting for, or in, execution.
type pending struct {
	ctx      context.Context
	req      Request
	enqueued time.Time // wall instant of queue entry (obs.Wall)
	started  bool
	resp     *Response
	err      error
	done     chan struct{}
}

// NewServer wraps the engine in a multi-tenant scheduler. Multiple
// Servers over one engine share its registry instruments; in practice
// one server per engine is the intended shape.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	reg := eng.Registry()
	return &Server{
		eng:     eng,
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		gInflight: reg.Gauge("tcq_server_inflight",
			"queries currently executing"),
		gQueued: reg.Gauge("tcq_server_queued",
			"requests waiting for admission"),
		cAdmitted: reg.CounterVec("tcq_server_admitted_total",
			"requests admitted into execution, by querier", "querier"),
		cRejected: reg.CounterVec("tcq_server_rejected_total",
			"requests rejected at admission, by reason (busy, quota, closed) and querier",
			"reason", "querier"),
		cCompleted: reg.CounterVec("tcq_server_completed_total",
			"finished queries, by outcome (ok, error) and querier",
			"outcome", "querier"),
		hLatency: reg.HistogramVec("tcq_server_query_seconds",
			"simulated query latency (TQ) of completed queries, by querier",
			[]float64{0.001, 0.01, 0.1, 1, 10, 100, 1000}, "querier"),
		hQueueWait: reg.HistogramVec("tcq_server_queue_seconds",
			"wall-clock admission-queue wait of dispatched requests, by querier",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}, "querier"),
	}
}

// journal is the engine's structured query journal; the scheduler begins
// each stream at admission so its events lead the engine's.
func (s *Server) journal() *obs.Journal { return s.eng.obs.journal }

// Submit runs one request through the scheduler and blocks until it
// completes or is rejected. Rejections are immediate and typed:
// ErrServerClosed, ErrServerBusy (global queue full) or ErrQuotaExceeded
// (this querier's own backlog cap). A context canceled while the request
// is still queued withdraws it; once execution starts the context bounds
// the run itself, exactly as in Engine.Execute.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Querier == nil {
		return nil, fmt.Errorf("core: Request.Querier is required")
	}
	// The journal stream is keyed by query ID and begins at admission, so
	// an unpinned request gets its ID here rather than inside the engine.
	if req.QueryID == "" {
		req.QueryID = s.eng.nextQueryID()
	}
	p := &pending{ctx: ctx, req: req, enqueued: obs.Wall(), done: make(chan struct{})}

	s.mu.Lock()
	if s.closed {
		s.rejectLocked("closed", req.Querier.ID)
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	tn := s.tenantLocked(req.Querier.ID, req.Querier.Credential)
	// Global backpressure first: a full server is "busy" for everyone.
	// The quota rejection is reserved for a querier over its own cap
	// while the server still has room for others.
	if s.queued >= s.cfg.QueueDepth {
		s.rejectLocked("busy", req.Querier.ID)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requests queued", ErrServerBusy, s.queued)
	}
	if mq := s.maxQueued(tn); mq >= 0 && len(tn.queue) >= mq {
		s.rejectLocked("quota", req.Querier.ID)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: querier %s has %d requests queued",
			ErrQuotaExceeded, req.Querier.ID, len(tn.queue))
	}
	tn.queue = append(tn.queue, p)
	s.queued++
	s.gQueued.Set(float64(s.queued))
	s.journal().Begin(req.QueryID)
	s.journal().Emit(req.QueryID, obs.JournalEvent{
		Kind: obs.JournalAdmission, Party: obs.PartyEngine,
		Detail: req.Querier.ID, At: obs.SimOrigin(),
	})
	s.dispatchLocked()
	s.mu.Unlock()

	select {
	case <-p.done:
		return p.resp, p.err
	case <-ctx.Done():
		s.mu.Lock()
		if !p.started {
			s.withdrawLocked(tn, p)
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrQueryTimeout, ctx.Err())
		}
		s.mu.Unlock()
		// Already executing: the run sees the same context and aborts
		// between protocol steps; report its account of the abort.
		<-p.done
		return p.resp, p.err
	}
}

// Close stops admission, fails every queued request with ErrServerClosed,
// and waits for the in-flight queries to finish. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, id := range s.order {
			tn := s.tenants[id]
			for _, p := range tn.queue {
				// The stream begun at admission never reached the engine;
				// drop it so no open stream outlives the server.
				s.journal().Discard(p.req.QueryID)
				p.err = ErrServerClosed
				close(p.done)
			}
			tn.queue = nil
		}
		s.queued = 0
		s.gQueued.Set(0)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ServerStats is a point-in-time snapshot of the scheduler.
type ServerStats struct {
	InFlight  int   // queries currently executing
	Queued    int   // requests waiting for admission
	Admitted  int64 // cumulative admissions
	Rejected  int64 // cumulative rejections (busy, quota, closed)
	Completed int64 // cumulative finished queries
}

// Stats snapshots the scheduler counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		InFlight:  s.inflight,
		Queued:    s.queued,
		Admitted:  s.admitted,
		Rejected:  s.rejected,
		Completed: s.completed,
	}
}

// tenantLocked finds or creates one querier's scheduler state, resolving
// its quota from the credential's roles at first contact.
func (s *Server) tenantLocked(id string, cred accessctl.Credential) *tenant {
	if tn, ok := s.tenants[id]; ok {
		return tn
	}
	q := s.cfg.Quotas.For(cred)
	tn := &tenant{quota: q, credit: weightOf(q)}
	s.tenants[id] = tn
	s.order = append(s.order, id)
	return tn
}

// maxQueued resolves one tenant's backlog cap: negative quota means
// unlimited (-1), zero defers to the server's QueueDepth.
func (s *Server) maxQueued(tn *tenant) int {
	switch {
	case tn.quota.MaxQueued < 0:
		return -1
	case tn.quota.MaxQueued == 0:
		return s.cfg.QueueDepth
	default:
		return tn.quota.MaxQueued
	}
}

// maxInFlight resolves one tenant's concurrency cap the same way.
func (s *Server) maxInFlight(tn *tenant) int {
	switch {
	case tn.quota.MaxInFlight < 0:
		return -1
	case tn.quota.MaxInFlight == 0:
		return s.cfg.MaxInFlight
	default:
		return tn.quota.MaxInFlight
	}
}

func weightOf(q accessctl.Quota) int {
	if q.Weight <= 0 {
		return 1
	}
	return q.Weight
}

// rejectLocked records one admission rejection.
func (s *Server) rejectLocked(reason, querier string) {
	s.rejected++
	s.cRejected.With(reason, querier).Inc()
}

// withdrawLocked removes a still-queued request whose context expired,
// discarding the journal stream admission opened for it: a withdrawn
// request must leak neither a started span nor an open stream.
func (s *Server) withdrawLocked(tn *tenant, p *pending) {
	for i, q := range tn.queue {
		if q == p {
			tn.queue = append(tn.queue[:i], tn.queue[i+1:]...)
			s.queued--
			s.gQueued.Set(float64(s.queued))
			s.journal().Discard(p.req.QueryID)
			return
		}
	}
}

// dispatchLocked fills free execution slots from the queues in weighted
// round-robin order. Called under s.mu whenever a slot frees or work
// arrives.
func (s *Server) dispatchLocked() {
	for s.inflight < s.cfg.MaxInFlight {
		p, tn := s.nextLocked()
		if p == nil {
			return
		}
		p.started = true
		s.inflight++
		tn.inflight++
		s.queued--
		s.admitted++
		s.gInflight.Set(float64(s.inflight))
		s.gQueued.Set(float64(s.queued))
		s.cAdmitted.With(p.req.Querier.ID).Inc()
		// Queue wait is a wall-clock quantity: simulated time never moves
		// while a request queues, so it lives only in metrics and tenant
		// stats — never in the trace or journal.
		wait := obs.Wall().Sub(p.enqueued)
		s.hQueueWait.With(p.req.Querier.ID).Observe(wait.Seconds())
		tn.qwait = pushSample(tn.qwait, wait.Seconds())
		s.journal().Emit(p.req.QueryID, obs.JournalEvent{
			Kind: obs.JournalDispatch, Party: obs.PartyEngine,
			Detail: p.req.Querier.ID, At: obs.SimOrigin(),
		})
		s.wg.Add(1)
		go s.runOne(p, tn)
	}
}

// nextLocked picks the next admissible request. The round-robin pointer
// rests on one querier for up to Quota.Weight consecutive admissions
// (its turn), then moves on; queriers at their in-flight cap or with an
// empty queue are skipped without consuming their turn.
func (s *Server) nextLocked() (*pending, *tenant) {
	for scanned := 0; scanned <= len(s.order); scanned++ {
		if len(s.order) == 0 {
			return nil, nil
		}
		id := s.order[s.rrPos%len(s.order)]
		tn := s.tenants[id]
		mi := s.maxInFlight(tn)
		eligible := len(tn.queue) > 0 && (mi < 0 || tn.inflight < mi)
		if eligible && tn.credit > 0 {
			tn.credit--
			p := tn.queue[0]
			tn.queue = tn.queue[1:]
			return p, tn
		}
		// Turn over: replenish for the next visit and move the pointer.
		tn.credit = weightOf(tn.quota)
		s.rrPos = (s.rrPos + 1) % len(s.order)
	}
	return nil, nil
}

// runOne executes one admitted request and settles it.
func (s *Server) runOne(p *pending, tn *tenant) {
	defer s.wg.Done()
	p.resp, p.err = s.eng.Execute(p.ctx, p.req)

	outcome := "ok"
	if p.err != nil {
		outcome = "error"
	}
	if p.resp == nil {
		// Execute failed before the engine adopted the journal stream the
		// scheduler began at admission; drop it so nothing leaks.
		s.journal().Discard(p.req.QueryID)
	} else if p.resp.Trace != nil {
		// Stitch the scheduler's account onto the engine trace as the last
		// child of the root, keeping the engine-only trace a byte prefix of
		// the server trace. Every scheduler span sits at the simulated
		// origin with zero duration: the scheduler changes who waits in
		// wall time, never what anything costs in simulated time.
		at := obs.SimOrigin()
		if srv := p.resp.Trace.Graft(nil, "server", obs.PartyEngine, at, at); srv != nil {
			srv.SetAttr("querier", p.req.Querier.ID).SetAttr("outcome", outcome)
			p.resp.Trace.Graft(srv, "admit", obs.PartyEngine, at, at)
			p.resp.Trace.Graft(srv, "queue-wait", obs.PartyEngine, at, at)
			p.resp.Trace.Graft(srv, "dispatch", obs.PartyEngine, at, at)
		}
	}

	s.mu.Lock()
	s.inflight--
	tn.inflight--
	s.completed++
	tn.completed++
	s.gInflight.Set(float64(s.inflight))
	s.cCompleted.With(outcome, p.req.Querier.ID).Inc()
	if p.resp != nil && p.resp.Metrics != nil {
		s.hLatency.With(p.req.Querier.ID).Observe(p.resp.Metrics.TQ.Seconds())
		tn.simTQ = pushSample(tn.simTQ, p.resp.Metrics.TQ.Seconds())
	}
	if p.resp != nil {
		s.retainLocked(p.req.QueryID, p.resp.Trace, p.resp.Journal)
	}
	s.dispatchLocked()
	s.mu.Unlock()
	close(p.done)
}

// pushSample appends to a bounded sliding window, evicting the oldest.
func pushSample(w []float64, v float64) []float64 {
	if len(w) >= tenantSampleCap {
		copy(w, w[1:])
		w[len(w)-1] = v
		return w
	}
	return append(w, v)
}

// retainLocked stores one finished query's artifacts in the retention
// ring for the ops endpoint.
func (s *Server) retainLocked(id string, tr *obs.QueryTrace, jr *obs.QueryJournal) {
	if len(s.recent) < serverRetain {
		s.recent = append(s.recent, retained{id: id, trace: tr, journal: jr})
		return
	}
	s.recent[s.recentAt%serverRetain] = retained{id: id, trace: tr, journal: jr}
	s.recentAt++
}

// recentLocked returns the i-th most recently retained entry. Once the
// ring has wrapped, slice order is not age order: the newest entry sits
// just before recentAt%len.
func (s *Server) recentLocked(i int) retained {
	return s.recent[(len(s.recent)+s.recentAt-1-i)%len(s.recent)]
}

// TraceFor returns the retained trace of the most recent finished query
// with this ID, or nil when it has aged out of the ring (or never ran
// here).
func (s *Server) TraceFor(id string) *obs.QueryTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.recent {
		if r := s.recentLocked(i); r.id == id && r.trace != nil {
			return r.trace
		}
	}
	return nil
}

// RecentJournals returns up to n retained journals, most recent first.
func (s *Server) RecentJournals(n int) []*obs.QueryJournal {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*obs.QueryJournal, 0, n)
	for i := 0; i < len(s.recent) && len(out) < n; i++ {
		if r := s.recentLocked(i); r.journal != nil {
			out = append(out, r.journal)
		}
	}
	return out
}

// TenantStats is one querier's share of the server's recent work: its
// completed-query count and the latency quantiles of its sliding sample
// windows. Simulated TQ measures what queries cost; wall-clock queue
// wait measures how contended the server is.
type TenantStats struct {
	Querier      string
	Completed    int64
	SimTQP50     time.Duration
	SimTQP99     time.Duration
	QueueWaitP50 time.Duration
	QueueWaitP99 time.Duration
}

// TenantStats snapshots every known tenant, sorted by querier ID.
func (s *Server) TenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.order))
	for _, id := range s.order {
		tn := s.tenants[id]
		out = append(out, TenantStats{
			Querier:      id,
			Completed:    tn.completed,
			SimTQP50:     secondsDur(obs.Quantile(tn.simTQ, 0.5)),
			SimTQP99:     secondsDur(obs.Quantile(tn.simTQ, 0.99)),
			QueueWaitP50: secondsDur(obs.Quantile(tn.qwait, 0.5)),
			QueueWaitP99: secondsDur(obs.Quantile(tn.qwait, 0.99)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Querier < out[j].Querier })
	return out
}

func secondsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
