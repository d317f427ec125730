package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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
//   - Admission: a bounded queue (ServerConfig.QueueDepth). A submission
//     that finds it full fails fast with ErrServerBusy instead of
//     building unbounded backlog.
//   - Dispatch: round-robin across queriers. Each turn admits one
//     request of one querier, so a heavy tenant cannot starve a light
//     one. At most ServerConfig.MaxInFlight queries execute concurrently.
//   - Sharing: in-flight queries run over the same fleet and the same
//     striped SSI (each query's state lives in its own stripe). Each
//     query wakes the slots it needs into devices of its own.
//
// Determinism survives multi-tenancy: a Request that pins its QueryID
// produces bit-identical rows, metrics, ledgers, traces and journals no
// matter what else is in flight, because every RNG on its path is seeded
// from (engine seed, device ID, query ID) and its SSI state is keyed by
// its own ID. The scheduler changes who waits, never what anyone
// computes, and writes nothing into a query's record: a submitted query
// returns the bytes Engine.Execute returns for it. Submit's result is the
// scheduler's whole account of a request: the Response (its TQ among its
// Metrics), ErrServerBusy, ErrServerClosed, or a duplicate-ID error.
var (
	// ErrServerClosed rejects submissions to a closed server.
	ErrServerClosed = errors.New("core: server closed")
	// ErrServerBusy rejects submissions when the admission queue is full —
	// the server's backpressure signal.
	ErrServerBusy = errors.New("core: server admission queue full")
)

// ServerConfig sizes a Server. The zero value is usable: 4 in-flight
// queries and a queue of 64.
type ServerConfig struct {
	// MaxInFlight caps concurrently executing queries. 0 means 4.
	MaxInFlight int
	// QueueDepth caps waiting requests across all queriers. 0 means 64.
	QueueDepth int
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
	queues   map[string][]*pending // waiting requests, by querier ID
	order    []string              // round-robin ring of querier IDs, arrival order
	next     int                   // ring position the next scan starts at
	ids      map[string]bool       // query IDs queued or in flight
	wg       sync.WaitGroup
}

// pending is one submitted request waiting for, or in, execution.
type pending struct {
	ctx     context.Context
	req     Request
	started bool
	resp    *Response
	err     error
	done    chan struct{}
}

// NewServer wraps the engine in a multi-tenant scheduler. In practice
// one server per engine is the intended shape.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	return &Server{
		eng:    eng,
		cfg:    cfg,
		queues: make(map[string][]*pending),
		ids:    make(map[string]bool),
	}
}

// Submit runs one request through the scheduler and blocks until it
// completes or is rejected. Rejections are immediate: ErrServerClosed,
// ErrServerBusy (queue full), or an error naming a QueryID that is still
// queued or in flight. A context canceled while the request is still
// queued withdraws it; once execution starts the context bounds the run
// itself, exactly as in Engine.Execute.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Querier == nil {
		return nil, fmt.Errorf("core: Request.Querier is required")
	}
	// An unpinned request gets its ID here, so admission can refuse a
	// second request under an ID still queued or in flight.
	if req.QueryID == "" {
		req.QueryID = s.eng.nextQueryID()
	}
	who := req.Querier.ID
	p := &pending{ctx: ctx, req: req, done: make(chan struct{})}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if _, known := s.queues[who]; !known {
		s.queues[who] = nil
		s.order = append(s.order, who)
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d requests queued", ErrServerBusy, s.queued)
	}
	if s.ids[req.QueryID] {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: query %s is already queued or in flight", req.QueryID)
	}
	s.ids[req.QueryID] = true
	s.queues[who] = append(s.queues[who], p)
	s.queued++
	s.dispatchLocked()
	s.mu.Unlock()

	select {
	case <-p.done:
		return p.resp, p.err
	case <-ctx.Done():
		s.mu.Lock()
		if !p.started { // still queued (unless Close failed it): withdraw it
			if i := slices.Index(s.queues[who], p); i >= 0 {
				s.queues[who] = slices.Delete(s.queues[who], i, i+1)
				s.queued--
				delete(s.ids, p.req.QueryID)
			}
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
			for _, p := range s.queues[id] {
				delete(s.ids, p.req.QueryID)
				p.err = ErrServerClosed
				close(p.done)
			}
			s.queues[id] = nil
		}
		s.queued = 0
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// dispatchLocked fills free execution slots from the queues in
// round-robin order. Called under s.mu whenever a slot frees or work
// arrives.
func (s *Server) dispatchLocked() {
	for s.inflight < s.cfg.MaxInFlight {
		p := s.nextLocked()
		if p == nil {
			return
		}
		p.started = true
		s.inflight++
		s.queued--
		s.wg.Add(1)
		go s.runOne(p)
	}
}

// nextLocked pops the next request in round-robin order: the scan starts
// just after the querier served last and takes one request from the first
// querier with a non-empty queue.
func (s *Server) nextLocked() *pending {
	for i := range s.order {
		at := (s.next + i) % len(s.order)
		id := s.order[at]
		if q := s.queues[id]; len(q) > 0 {
			s.queues[id] = q[1:]
			s.next = at + 1
			return q[0]
		}
	}
	return nil
}

// runOne executes one admitted request and settles it.
func (s *Server) runOne(p *pending) {
	defer s.wg.Done()
	p.resp, p.err = s.eng.Execute(p.ctx, p.req)

	s.mu.Lock()
	s.inflight--
	delete(s.ids, p.req.QueryID)
	s.dispatchLocked()
	s.mu.Unlock()
	close(p.done)
}
