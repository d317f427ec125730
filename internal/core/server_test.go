package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/ssi"
)

// queryOutcome fingerprints everything a query's determinism contract
// covers: result rows, the full metrics snapshot (which embeds the SSI's
// recovery ledger), the serialized trace and the serialized structured
// journal.
type queryOutcome struct {
	rows    string
	metrics Metrics
	trace   string
	journal string
}

func outcomeOf(t *testing.T, req Request, resp *Response) queryOutcome {
	t.Helper()
	assertDeviceAccounts(t, resp.Metrics, sizeBounded(req))
	var buf bytes.Buffer
	if resp.Trace != nil {
		noErr(t, resp.Trace.WriteJSONL(&buf))
	}
	return queryOutcome{
		rows:    fmt.Sprintf("%v", resp.Result.Rows),
		metrics: *resp.Metrics,
		trace:   buf.String(),
		journal: string(resp.Journal.Bytes()),
	}
}

// TestConcurrentQueryDeterminism is the multi-tenant determinism
// contract: a query with a pinned QueryID produces bit-identical rows,
// metrics, ledger, trace and journal whether Engine.Execute runs it alone
// on a fresh engine or a Server interleaves it with 15 other queries
// (mixed protocols, churn on, verify on) over one shared fleet: the
// scheduler writes nothing into a query's record. The shared engine first
// runs every protocol twice in turn, so its later runs take the memory
// earlier ones released (window slots, collectors, arenas, store chunks):
// nothing recycled may reach a record. Run under -race it doubles as the
// scheduler's and the pools' data-race gate.
func TestConcurrentQueryDeterminism(t *testing.T) {
	type spec struct {
		id     string
		sql    string
		kind   protocol.Kind
		params protocol.Params
	}
	mkSpecs := func(n int) []spec {
		specs := make([]spec, n)
		for i := range specs {
			sc := churnScenarios[i%len(churnScenarios)]
			specs[i] = spec{
				id:     fmt.Sprintf("mt-%02d", i),
				sql:    sc.sql,
				kind:   sc.kind,
				params: sc.params,
			}
		}
		return specs
	}
	reqOf := func(f *fixture, sp spec) Request {
		return Request{
			Querier: f.q, SQL: sp.sql, Kind: sp.kind, Params: sp.params,
			QueryID: sp.id, Faults: churnPlan(),
		}
	}

	for _, q := range []int{1, 16} {
		t.Run(fmt.Sprintf("Q=%d", q), func(t *testing.T) {
			specs := mkSpecs(q)

			// Solo baselines: each spec run directly on its own fresh engine.
			want := make([]queryOutcome, len(specs))
			for i, sp := range specs {
				f := newFixture(t, 40, nil)
				req := reqOf(f, sp)
				resp, err := f.eng.Execute(context.Background(), req)
				if err != nil {
					t.Fatalf("solo %s: %v", sp.id, err)
				}
				want[i] = outcomeOf(t, req, resp)
			}

			// A divergence names its first differing line: rows, Metrics, then
			// the journal and the trace.
			same := func(what string, i int, got queryOutcome) {
				render := func(o queryOutcome) string {
					return fmt.Sprintf("rows %s\nmetrics %+v\n%s%s", o.rows, o.metrics, o.journal, o.trace)
				}
				diverge(t, fmt.Sprintf("%s (%v) %s:", specs[i].id, specs[i].kind, what), render(want[i]), render(got))
			}

			// One engine runs every protocol twice in turn, each run after the
			// first in memory an earlier run released.
			f := newFixture(t, 40, nil)
			for round := 0; round < 2; round++ {
				for i := range min(len(specs), len(churnScenarios)) {
					req := reqOf(f, specs[i])
					resp, err := f.eng.Execute(context.Background(), req)
					noErr(t, err)
					same(fmt.Sprintf("in round %d on a reused engine", round+1), i, outcomeOf(t, req, resp))
				}
			}

			// The same specs, all in flight at once over that engine's fleet.
			srv := NewServer(f.eng, ServerConfig{MaxInFlight: 8, QueueDepth: len(specs)})
			defer srv.Close()
			got := make([]queryOutcome, len(specs))
			errs := make([]error, len(specs))
			var wg sync.WaitGroup
			for i, sp := range specs {
				wg.Add(1)
				go func(i int, sp spec) {
					defer wg.Done()
					req := reqOf(f, sp)
					resp, err := srv.Submit(context.Background(), req)
					if err != nil {
						errs[i] = err
						return
					}
					got[i] = outcomeOf(t, req, resp)
				}(i, sp)
			}
			wg.Wait()
			for i, sp := range specs {
				if errs[i] != nil {
					t.Fatalf("concurrent %s: %v", sp.id, errs[i])
				}
				same("under concurrency", i, got[i])
			}
		})
	}
}

// TestConcurrentQueries: callers that share one engine with no Server in
// front of it may run Execute at once; each gets the rows it would alone.
func TestConcurrentQueries(t *testing.T) {
	f := newFixture(t, 30, nil)
	queries := []struct {
		sql  string
		kind protocol.Kind
	}{{flagshipSQL, protocol.KindSAgg}, {countSQL, protocol.KindSAgg},
		{`SELECT cid FROM Consumer WHERE accommodation = 'flat'`, protocol.KindBasic}, {flagshipSQL, protocol.KindCNoise}}
	got, errs := make([]*sqlexec.Result, len(queries)), make([]error, len(queries))
	var wg sync.WaitGroup
	for i, qq := range queries {
		wg.Add(1)
		go func() { defer wg.Done(); got[i], _, errs[i] = runQuery(f.eng, f.q, qq.sql, qq.kind, protocol.Params{}) }()
	}
	wg.Wait()
	for i, qq := range queries {
		noErr(t, errs[i])
		assertSameResult(t, got[i], f.reference(t, qq.sql))
	}
}

// gatedSSI blocks every PostQuery until the gate opens and records the
// order in which queries were admitted into execution — the test's
// window into the scheduler's dispatch decisions.
type gatedSSI struct {
	ssi.Service
	gate chan struct{}
	once sync.Once

	mu    sync.Mutex
	order []string
}

func newGatedSSI() *gatedSSI {
	return &gatedSSI{Service: ssi.NewSharded(0), gate: make(chan struct{})}
}

// release opens the gate; safe to call more than once, so tests can both
// defer it (deadlock insurance for Server.Close on failure paths) and
// call it explicitly.
func (g *gatedSSI) release() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedSSI) PostQuery(post *protocol.QueryPost, at time.Time) error {
	<-g.gate
	g.mu.Lock()
	g.order = append(g.order, post.ID)
	g.mu.Unlock()
	return g.Service.PostQuery(post, at)
}

func (g *gatedSSI) admitted() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

// waitStats polls the scheduler's in-flight and queued counts until it
// reaches the wanted shape.
func waitStats(t *testing.T, srv *Server, inflight, queued int) {
	t.Helper()
	stats := func() (int, int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.inflight, srv.queued
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if i, q := stats(); i == inflight && q == queued {
			return
		}
		time.Sleep(time.Millisecond)
	}
	i, q := stats()
	t.Fatalf("scheduler never reached inflight=%d queued=%d (now %d / %d)", inflight, queued, i, q)
}

const countSQL = `SELECT COUNT(*) FROM Power`

// submitAsync submits req in the background; its error arrives on the
// returned channel.
func submitAsync(ctx context.Context, srv *Server, req Request) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := srv.Submit(ctx, req)
		errc <- err
	}()
	return errc
}

// TestServerBackpressure fills the bounded admission queue and requires
// the overflow submission to fail fast with ErrServerBusy while every
// admitted request still completes.
func TestServerBackpressure(t *testing.T) {
	gate := newGatedSSI()
	f := newFixture(t, 8, func(c *Config) { c.SSI = gate })
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1, QueueDepth: 2})
	defer srv.Close()
	defer gate.release()

	req := Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg}
	var results [3]<-chan error
	for i := range results {
		results[i] = submitAsync(context.Background(), srv, req)
		waitStats(t, srv, 1, i) // 1 executing (held at the gate), i queued
	}

	// The server is full: 1 in flight + 2 queued. One more must bounce.
	if _, err := srv.Submit(context.Background(), req); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("overflow submission: err = %v, want ErrServerBusy", err)
	}

	gate.release()
	for _, errc := range results {
		if err := <-errc; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}
	waitStats(t, srv, 0, 0) // drained: nothing left in flight or queued
}

// TestServerFairness pins the round-robin dispatch order: with every
// request pre-queued behind one execution slot, each turn admits one
// request of the next querier, so a querier that queued first cannot
// starve one that queued later.
func TestServerFairness(t *testing.T) {
	gate := newGatedSSI()
	f := newFixture(t, 8, func(c *Config) { c.SSI = gate })
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1})
	defer srv.Close()
	defer gate.release()

	expiry := time.Unix(1700000000, 0).Add(365 * 24 * time.Hour)
	mkQuerier := func(id string) *querier.Querier {
		t.Helper()
		cred := f.eng.Authority().Issue(id, []string{"energy-analyst"}, expiry)
		q, err := querier.New(id, f.eng.K1(), cred, f.eng.Schema())
		noErr(t, err)
		return q
	}
	alice, bob := mkQuerier("alice"), mkQuerier("bob")

	submit := func(q *querier.Querier, id string, wg *sync.WaitGroup) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Submit(context.Background(), Request{
				Querier: q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: id,
			}); err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}()
	}

	var wg sync.WaitGroup
	// a1 takes the only slot and parks at the gate; everything else
	// queues up in a known arrival order.
	submit(alice, "a1", &wg)
	waitStats(t, srv, 1, 0)
	for i, sub := range []struct {
		q  *querier.Querier
		id string
	}{
		{alice, "a2"}, {alice, "a3"}, {alice, "a4"},
		{bob, "b1"}, {bob, "b2"}, {bob, "b3"}, {bob, "b4"},
	} {
		submit(sub.q, sub.id, &wg)
		waitStats(t, srv, 1, i+1)
	}

	gate.release()
	wg.Wait()

	want := []string{"a1", "b1", "a2", "b2", "a3", "b3", "a4", "b4"}
	if got := gate.admitted(); !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order = %v, want round-robin %v", got, want)
	}
}

// heldSSI parks every collection run until released, and signals when
// the first one arrives: a run is then inside its collection phase, its
// query posted and its journal stream open.
type heldSSI struct {
	ssi.Service
	entered, gate chan struct{}
	enter, open   sync.Once
}

func (h *heldSSI) release() { h.open.Do(func() { close(h.gate) }) }

func (h *heldSSI) DepositEnvelopeBatch(id string, deps []*protocol.Deposit, now time.Time) ([]ssi.DepositOutcome, int, bool, error) {
	h.enter.Do(func() { close(h.entered) })
	<-h.gate
	return h.Service.DepositEnvelopeBatch(id, deps, now)
}

// TestServerDuplicateQueryID: a request pinning the ID of a run still in
// flight is rejected at admission, a direct Execute of it by the SSI's
// duplicate post, and the first run's journal is the one the same query
// returns run directly.
func TestServerDuplicateQueryID(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			held := &heldSSI{Service: ssi.NewSharded(0),
				entered: make(chan struct{}), gate: make(chan struct{})}
			f := newFixture(t, 8, func(c *Config) { c.SSI = held; c.CollectWorkers = workers })
			srv := NewServer(f.eng, ServerConfig{MaxInFlight: 2})
			defer srv.Close()
			defer held.release()

			req := Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "dup"}
			first := make(chan *Response, 1)
			go func() {
				resp, err := srv.Submit(context.Background(), req)
				if err != nil {
					t.Errorf("first run: %v", err)
				}
				first <- resp
			}()
			select {
			case <-held.entered:
			case <-first:
				t.Fatal("first run finished without reaching collection")
			}
			if _, err := srv.Submit(context.Background(), req); err == nil ||
				err.Error() != "core: query dup is already queued or in flight" {
				t.Errorf("second run under an in-flight QueryID: err = %v, want the duplicate-ID rejection", err)
			}
			if _, err := f.eng.Execute(context.Background(), req); err == nil {
				t.Error("a direct run under an in-flight QueryID was posted")
			}

			held.release()
			resp := <-first
			direct := newFixture(t, 8, func(c *Config) { c.CollectWorkers = workers })
			want, err := direct.eng.Execute(context.Background(), Request{
				Querier: direct.q, SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "dup"})
			if err != nil || resp == nil || !bytes.Equal(resp.Journal.Bytes(), want.Journal.Bytes()) {
				t.Fatalf("first run's journal is not the direct run's (%v)", err)
			}
		})
	}
}

// TestServerQueuedCancel withdraws a queued request when its context
// expires, without disturbing the in-flight query.
func TestServerQueuedCancel(t *testing.T) {
	gate := newGatedSSI()
	f := newFixture(t, 8, func(c *Config) { c.SSI = gate })
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1})
	defer srv.Close()
	defer gate.release()

	req := Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg}
	first := submitAsync(context.Background(), srv, req)
	waitStats(t, srv, 1, 0)

	ctx, cancel := context.WithCancel(context.Background())
	second := submitAsync(ctx, srv, req)
	waitStats(t, srv, 1, 1)

	cancel()
	if err := <-second; !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("canceled queued request: err = %v, want ErrQueryTimeout", err)
	}
	waitStats(t, srv, 1, 0) // withdrawn from the queue

	gate.release()
	if err := <-first; err != nil {
		t.Errorf("in-flight request failed: %v", err)
	}
}

// TestServerClosed rejects new submissions after Close and fails the
// queued ones with ErrServerClosed.
func TestServerClosed(t *testing.T) {
	gate := newGatedSSI()
	f := newFixture(t, 8, func(c *Config) { c.SSI = gate })
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 1})
	defer gate.release()

	req := Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg}
	first := submitAsync(context.Background(), srv, req)
	waitStats(t, srv, 1, 0)
	queuedErr := submitAsync(context.Background(), srv, req)
	waitStats(t, srv, 1, 1)

	// Close must fail the queued request, wait out the in-flight one,
	// and reject everything after.
	go func() {
		time.Sleep(10 * time.Millisecond)
		gate.release() // let the in-flight query finish so Close returns
	}()
	srv.Close()
	if err := <-queuedErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("queued request after Close: err = %v, want ErrServerClosed", err)
	}
	if err := <-first; err != nil {
		t.Errorf("in-flight request failed across Close: %v", err)
	}
	if _, err := srv.Submit(context.Background(), req); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-Close submission: err = %v, want ErrServerClosed", err)
	}
	srv.Close() // idempotent
}

// TestServerSharedDeviceCache checks the server over one fleet:
// concurrent queries, each waking the devices it needs into devices of its
// own, return what the same queries return alone.
func TestServerSharedDeviceCache(t *testing.T) {
	solo := newFixture(t, 24, nil)
	want := make([]string, 4)
	for i := range want {
		resp, err := solo.eng.Execute(context.Background(), Request{
			Querier: solo.q, SQL: countSQL, Kind: protocol.KindSAgg,
			QueryID: fmt.Sprintf("cache-%d", i)})
		noErr(t, err)
		want[i] = fmt.Sprintf("%v", resp.Result.Rows)
	}

	f := newFixture(t, 24, nil)
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 4})
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := srv.Submit(context.Background(), Request{
				Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg,
				QueryID: fmt.Sprintf("cache-%d", i)})
			if err != nil {
				t.Errorf("cache-%d: %v", i, err)
				return
			}
			if got := fmt.Sprintf("%v", resp.Result.Rows); got != want[i] {
				t.Errorf("cache-%d diverged from its solo run: got %s want %s", i, got, want[i])
			}
		}(i)
	}
	wg.Wait()
}
