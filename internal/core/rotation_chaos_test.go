package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
)

const basicConsumerSQL = `SELECT C.cid, C.district FROM Consumer C`

// connectionOrder reproduces the engine's collection connection order for
// a pinned query ID: the first draw of the run RNG, exactly as
// collectionPhase makes it. Tests use it to place revocations relative to
// the scripted rotation point.
func connectionOrder(qid string, fleetSize int) []int {
	return rng.New(7, qid, rng.Run).Perm(fleetSize)
}

// slotOf inverts the "tds-%05d" device naming.
func slotOf(t *testing.T, id string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimPrefix(id, "tds-"))
	if err != nil {
		t.Fatalf("device ID %q does not name a fleet slot: %v", id, err)
	}
	return n
}

// referenceExcluding runs the query standalone over every database except
// the excluded fleet slots — the honest answer once those devices are out.
func referenceExcluding(t *testing.T, f *fixture, sql string, exclude map[int]bool) *sqlexec.Result {
	t.Helper()
	plan, err := sqlexec.Compile(sqlparse.MustParse(sql), f.eng.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var dbs []*storage.LocalDB
	for i, db := range f.dbs {
		if !exclude[i] {
			dbs = append(dbs, db)
		}
	}
	res, err := sqlexec.Standalone(plan, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func ledgerCount(m *Metrics, kind string) int {
	n := 0
	for _, le := range m.Ledger {
		if le.Kind == kind {
			n++
		}
	}
	return n
}

// tornOutcome is one worker count's view of the torn-rollout sequence.
type tornOutcome struct {
	rows    [][]string
	ledgers [][]ssi.LedgerEntry
}

// TestTornRolloutStaleRecovery walks the full degradation-and-recovery
// arc of a rollout that stalls one wave short:
//
//	q1  rotation begins mid-query but the last wave never lands; the
//	    old-epoch query is untouched (grace).
//	q2  a new-epoch query finds the stranded wave stale: each stranded
//	    device leaves a deposit-stale ledger entry (device + timestamp),
//	    is retried once, stays stale, and degrades to a collect error —
//	    the rows are exact over the migrated subset.
//	q3  the rollout resumes mid-query; stranded devices caught before the
//	    wave are retried after it lands, billed RetryWait, and the full
//	    fleet answers.
//	q4  CompleteRotation closes the window; a clean query sees everything.
//
// The entire sequence must be identical at any CollectWorkers setting.
func TestTornRolloutStaleRecovery(t *testing.T) {
	for _, packed := range []bool{false, true} {
		name := "eager"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			runSeq := func(workers int) tornOutcome {
				const fleetSize = 24
				f := newFixture(t, fleetSize, func(c *Config) {
					c.CollectWorkers = workers
					c.PackedFleet = packed
				})
				var out tornOutcome
				note := func(resp *Response) {
					assertDeviceAccounts(t, resp.Metrics, false)
					// The retries run in the walk's first slot, its buffer reused:
					// every deposit must still answer to its commitment.
					if in := resp.Integrity; in.Violations != 0 || in.Deposits != resp.Metrics.DepositedDevices {
						t.Errorf("%d of %d deposits verified, %d violations", in.Deposits, resp.Metrics.DepositedDevices, in.Violations)
					}
					out.rows = append(out.rows, sortedRows(resp.Result))
					out.ledgers = append(out.ledgers, resp.Metrics.Ledger)
				}

				// q1: old epoch, torn rollout (3 waves, last one never lands).
				resp, err := f.eng.Execute(context.Background(), Request{
					Querier: f.q, SQL: basicConsumerSQL, Kind: protocol.KindBasic, QueryID: "torn-q1",
					Faults: &faultplan.Plan{Rotation: &faultplan.RotationScript{
						AfterDeposits: 6, Waves: 3, WaveEvery: 4, TornRollout: true,
					}},
				})
				if err != nil {
					t.Fatalf("q1: %v", err)
				}
				if got, want := sortedRows(resp.Result), sortedRows(f.reference(t, basicConsumerSQL)); !reflect.DeepEqual(got, want) {
					t.Errorf("q1: torn rollout cost the old-epoch query coverage:\ngot:  %v\nwant: %v", got, want)
				}
				note(resp)
				if !f.eng.rotationInProgress() || f.eng.pendingWaves() != 1 {
					t.Fatalf("after q1: pending waves = %d, want exactly the torn final wave", f.eng.pendingWaves())
				}
				schedule := f.eng.RolloutSchedule()
				stranded := schedule[len(schedule)-1]
				strandedSlots := map[int]bool{}
				for _, id := range stranded {
					strandedSlots[slotOf(t, id)] = true
				}

				// q2: new-epoch query; the stranded wave is stale and stays so.
				q2 := newQuerierForEngine(t, f.eng, "edf2")
				resp, err = f.eng.Execute(context.Background(), Request{
					Querier: q2, SQL: basicConsumerSQL, Kind: protocol.KindBasic, QueryID: "torn-q2",
					Faults: &faultplan.Plan{Rotation: &faultplan.RotationScript{}},
				})
				if err != nil {
					t.Fatalf("q2: %v", err)
				}
				if got, want := sortedRows(resp.Result), sortedRows(referenceExcluding(t, f, basicConsumerSQL, strandedSlots)); !reflect.DeepEqual(got, want) {
					t.Errorf("q2: rows over the migrated subset:\ngot:  %v\nwant: %v", got, want)
				}
				if resp.Metrics.CollectErrors != len(stranded) {
					t.Errorf("q2: CollectErrors = %d, want the %d stranded devices",
						resp.Metrics.CollectErrors, len(stranded))
				}
				staleSeen := map[string]bool{}
				for _, le := range resp.Metrics.Ledger {
					if le.Kind != "deposit-stale" {
						continue
					}
					if le.Device == "" || le.At.IsZero() {
						t.Errorf("q2: deposit-stale entry missing device or timestamp: %+v", le)
					}
					staleSeen[le.Device] = true
				}
				for _, id := range stranded {
					if !staleSeen[id] {
						t.Errorf("q2: stranded device %s left no deposit-stale ledger entry", id)
					}
				}
				if resp.Metrics.RetryWait != 0 {
					t.Errorf("q2: RetryWait = %v; a retry that cannot proceed must not bill backoff",
						resp.Metrics.RetryWait)
				}
				if resp.Journal == nil || !bytes.Contains(resp.Journal.Bytes(), []byte(`"detail":"deposit-stale"`)) {
					t.Error("q2: journal does not mirror the deposit-stale ledger entries")
				}
				note(resp)

				// q3: the rollout resumes mid-query; stranded devices recover
				// through the post-walk retry.
				resp, err = f.eng.Execute(context.Background(), Request{
					Querier: q2, SQL: basicConsumerSQL, Kind: protocol.KindBasic, QueryID: "torn-q3",
					Faults: &faultplan.Plan{Rotation: &faultplan.RotationScript{WaveEvery: 12}},
				})
				if err != nil {
					t.Fatalf("q3: %v", err)
				}
				if got, want := sortedRows(resp.Result), sortedRows(f.reference(t, basicConsumerSQL)); !reflect.DeepEqual(got, want) {
					t.Errorf("q3: recovered query is not whole:\ngot:  %v\nwant: %v", got, want)
				}
				if resp.Metrics.CollectErrors != 0 {
					t.Errorf("q3: CollectErrors = %d after the wave landed", resp.Metrics.CollectErrors)
				}
				if resp.Metrics.RetryWait <= 0 {
					t.Error("q3: recovered retries billed no RetryWait")
				}
				retried := 0
				for _, le := range resp.Metrics.Ledger {
					if le.Kind == "deposit-stale" && le.Attempt == 1 {
						retried++
					}
				}
				if retried == 0 {
					t.Error("q3: no device was caught stale before the wave landed")
				}
				note(resp)

				// q4: CompleteRotation closes the window; a clean query sees all.
				if err := f.eng.CompleteRotation(); err != nil {
					t.Fatalf("CompleteRotation: %v", err)
				}
				if f.eng.rotationInProgress() {
					t.Fatal("rotation still in progress after CompleteRotation")
				}
				resp, err = f.eng.Execute(context.Background(), Request{
					Querier: q2, SQL: basicConsumerSQL, Kind: protocol.KindBasic, QueryID: "torn-q4",
				})
				if err != nil {
					t.Fatalf("q4: %v", err)
				}
				if got, want := sortedRows(resp.Result), sortedRows(f.reference(t, basicConsumerSQL)); !reflect.DeepEqual(got, want) {
					t.Errorf("q4: post-rotation query is not whole:\ngot:  %v\nwant: %v", got, want)
				}
				note(resp)
				return out
			}
			seq, par := runSeq(1), runSeq(8)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("torn-rollout sequence diverges across workers:\nW1: %+v\nW8: %+v", seq, par)
			}
		})
	}
}

// TestRolloutScheduleDeterminism pins the schedule contract: two engines
// built from the same seed derive bit-identical wave assignments, every
// non-revoked device appears in exactly one wave, revoked devices in
// none, and the lifecycle guards hold.
func TestRolloutScheduleDeterminism(t *testing.T) {
	const fleetSize, waves = 64, 4
	e1 := newFixtureEngineOnly(t, fleetSize, true)
	e2 := newFixtureEngineOnly(t, fleetSize, true)
	for _, e := range []*Engine{e1, e2} {
		if err := e.BeginRotation(waves, "tds-00001"); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := e1.RolloutSchedule(), e2.RolloutSchedule()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("schedules diverge across identically-seeded engines:\n%v\n%v", s1, s2)
	}
	if len(s1) != waves {
		t.Fatalf("schedule has %d waves, want %d", len(s1), waves)
	}
	seen := map[string]int{}
	for _, wave := range s1 {
		for _, id := range wave {
			seen[id]++
		}
	}
	if seen["tds-00001"] != 0 {
		t.Error("revoked device scheduled for rollout")
	}
	if len(seen) != fleetSize-1 {
		t.Errorf("schedule covers %d devices, want the %d survivors", len(seen), fleetSize-1)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("device %s scheduled %d times", id, n)
		}
	}

	if err := e1.BeginRotation(2); err == nil {
		t.Error("second BeginRotation did not refuse while one is in progress")
	}
	if err := e1.RevokeAndRotate("tds-00002"); err == nil {
		t.Error("RevokeAndRotate did not refuse during a live rotation")
	}
	for i := 0; i < waves; i++ {
		done, err := e1.AdvanceRotationWave()
		if err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
		if done != (i == waves-1) {
			t.Errorf("wave %d: done = %v", i, done)
		}
	}
	if err := e1.CompleteRotation(); err != nil {
		t.Fatal(err)
	}
	if e1.rotationInProgress() || e1.TrustBundleBytes() != nil {
		t.Error("rotation state not retired after CompleteRotation")
	}
	if err := e1.CompleteRotation(); err == nil {
		t.Error("CompleteRotation did not refuse with no rotation in progress")
	}
}

// postingSSI counts PostQuery calls, giving tests a way to wait until a
// batch of concurrent queries has actually posted (and therefore pinned
// its epoch) before the test rotates the keys underneath them. Embedding
// the concrete *ssi.SSI keeps its optional interfaces (tracer, journal)
// promoted.
type postingSSI struct {
	*ssi.SSI
	posted atomic.Int32
}

func (p *postingSSI) PostQuery(post *protocol.QueryPost, at time.Time) error {
	err := p.SSI.PostQuery(post, at)
	p.posted.Add(1)
	return err
}

func (p *postingSSI) waitPosted(t *testing.T, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.posted.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only %d of %d queries posted", p.posted.Load(), n)
}

// TestRevocationRaceSharedCache is the -race gate for the lifecycle
// paths: 16 concurrent queries over one shared packed fleet interleave
// with a live rotation that revokes one device, wave by wave — 8 posted
// at the old epoch before the rotation begins, 8 posted at the new epoch
// by a re-keyed querier while waves land. Every query must either
// complete with zero integrity violations or fail with a typed abort, and
// once the rotation settles the revoked device answers nothing.
func TestRevocationRaceSharedCache(t *testing.T) {
	const fleetSize = 24
	post := &postingSSI{SSI: ssi.NewSharded(0)}
	f := newFixture(t, fleetSize, func(c *Config) {
		c.PackedFleet = true
		c.SSI = post
	})
	srv := NewServer(f.eng, ServerConfig{MaxInFlight: 16, QueueDepth: 32})
	defer srv.Close()

	const victim = "tds-00007"
	queries := []struct {
		sql  string
		kind protocol.Kind
	}{
		{countSQL, protocol.KindSAgg},
		{basicConsumerSQL, protocol.KindBasic},
	}
	resps := make([]*Response, 16)
	errs := make([]error, 16)
	var wg sync.WaitGroup
	launch := func(lo, hi int, q *querier.Querier) {
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				qs := queries[i%len(queries)]
				resps[i], errs[i] = srv.Submit(context.Background(), Request{
					Querier: q, SQL: qs.sql, Kind: qs.kind,
					QueryID: fmt.Sprintf("rev-race-%02d", i),
				})
			}(i)
		}
	}

	// Wave 1 of traffic posts at the old epoch, then the rotation begins
	// underneath it; wave 2 posts at the new epoch (its querier holds the
	// rotated k1) while the rollout is mid-flight.
	launch(0, 8, f.q)
	post.waitPosted(t, 8)
	if err := f.eng.BeginRotation(4, victim); err != nil {
		t.Fatal(err)
	}
	launch(8, 16, newQuerierForEngine(t, f.eng, "edf-new"))
	for {
		done, err := f.eng.AdvanceRotationWave()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond) // let in-flight queries race the wave
	}
	wg.Wait()
	if err := f.eng.CompleteRotation(); err != nil {
		t.Fatal(err)
	}

	for i := range resps {
		if err := errs[i]; err != nil {
			var mis *ErrSSIMisbehavior
			if !errors.Is(err, ErrCoverageBelowFloor) && !errors.Is(err, ErrQueryTimeout) &&
				!errors.Is(err, ErrNoEligibleTDS) && !errors.As(err, &mis) {
				t.Errorf("query %d failed untyped: %v", i, err)
			}
			continue
		}
		if integ := resps[i].Integrity; integ == nil || integ.Violations != 0 {
			t.Errorf("query %d racing the rotation: integrity report %+v", i, integ)
		}
	}

	// Settled state: the victim is out and everyone else answers.
	resp, err := srv.Submit(context.Background(), Request{
		Querier: newQuerierForEngine(t, f.eng, "edf-post"),
		SQL:     basicConsumerSQL, Kind: protocol.KindBasic, QueryID: "rev-race-settled",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(referenceExcluding(t, f, basicConsumerSQL,
		map[int]bool{slotOf(t, victim): true}))
	if got := sortedRows(resp.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("settled rows:\ngot:  %v\nwant: %v", got, want)
	}
	if resp.Metrics.CollectErrors != 1 {
		t.Errorf("settled CollectErrors = %d, want the one revoked device", resp.Metrics.CollectErrors)
	}
}
