package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/rng"
	"github.com/trustedcells/tcq/internal/sqlexec"
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

// referenceExcluding runs the query standalone over every database except
// the excluded fleet slots — the honest answer once those devices are out.
func referenceExcluding(t *testing.T, f *fixture, sql string, exclude map[int]bool) *sqlexec.Result {
	t.Helper()
	plan := compilePlan(t, sql, f.eng.Schema())
	var dbs []*storage.LocalDB
	for i, db := range f.dbs {
		if !exclude[i] {
			dbs = append(dbs, db)
		}
	}
	res, err := sqlexec.Standalone(plan, dbs...)
	noErr(t, err)
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

// rolloutSchedule returns the device IDs of each wave of the in-progress
// rotation, in wave order.
func rolloutSchedule(e *Engine) [][]string {
	e.life.RLock()
	defer e.life.RUnlock()
	out := make([][]string, len(e.rot.waves))
	for w, slots := range e.rot.waves {
		for _, s := range slots {
			out[w] = append(out[w], e.fleet.ids[s])
		}
	}
	return out
}

// tornRollout runs q1 of the torn-rollout arc on a 24-device fixture: an
// old-epoch query during which a rotation begins after 6 deposits and
// lands two of its three waves, one every 4 commits; the third never
// lands. It returns q1's response and the IDs the torn wave stranded.
func tornRollout(t *testing.T, f *fixture) (*Response, []string) {
	t.Helper()
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: newQuerierForEngine(t, f.eng, "edf1"), SQL: basicConsumerSQL, Kind: protocol.KindBasic,
		QueryID: "torn-q1", Faults: &faultplan.Plan{Rotation: &faultplan.RotationScript{
			AfterDeposits: 6, Waves: 3, WaveEvery: 4, TornRollout: true,
		}},
	})
	if err != nil {
		t.Fatalf("q1: %v", err)
	}
	if !f.eng.rotationInProgress() || f.eng.pendingWaves() != 1 {
		t.Fatalf("after q1: pending waves = %d, want exactly the torn final wave", f.eng.pendingWaves())
	}
	schedule := rolloutSchedule(f.eng)
	return resp, schedule[len(schedule)-1]
}

// strandedQuery runs req at the epoch a torn rollout's stranded wave never
// reached, and checks the stale rule: each stranded device leaves a
// stamped deposit-stale entry, the journal's mirror of it, and a
// deposit-retry entry that bills no backoff (the retry cannot proceed),
// and ends a collect error; the rows are exact over the migrated subset.
func strandedQuery(t *testing.T, f *fixture, stranded []string, req Request) *Response {
	t.Helper()
	resp, err := f.eng.Execute(context.Background(), req)
	noErr(t, err)
	m, slots, stale := resp.Metrics, map[int]bool{}, map[string]bool{}
	assertDeviceAccounts(t, m, false)
	for _, le := range m.Ledger {
		stale[le.Device] = stale[le.Device] || le.Kind == "deposit-stale" && !le.At.IsZero()
	}
	for _, id := range stranded {
		slot, _ := f.eng.slotOf(id)
		if slots[slot] = true; !stale[id] {
			t.Errorf("%s: stranded device %s left no stamped deposit-stale entry", req.QueryID, id)
		}
	}
	if got, want := sortedRows(resp.Result), sortedRows(referenceExcluding(t, f, req.SQL, slots)); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: rows over the migrated subset:\ngot:  %v\nwant: %v", req.QueryID, got, want)
	}
	if n, s, r := len(stranded), ledgerCount(m, "deposit-stale"), ledgerCount(m, "deposit-retry"); m.CollectErrors != n || s != n || r != n || m.RetryWait != 0 {
		t.Errorf("%s: %d collect errors, %d deposit-stale and %d deposit-retry entries, RetryWait %v; want %d, %d, %d, 0",
			req.QueryID, m.CollectErrors, s, r, m.RetryWait, n, n, n)
	}
	if !bytes.Contains(resp.Journal.Bytes(), []byte(`"detail":"deposit-stale"`)) {
		t.Errorf("%s: journal does not mirror the deposit-stale ledger entries", req.QueryID)
	}
	return resp
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
//	q4  q3 landed the last wave, so the window closed itself when q3
//	    ended; a clean query sees everything.
//
// The entire sequence must be identical at any CollectWorkers setting.
func TestTornRolloutStaleRecovery(t *testing.T) {
	runSeq := func(workers int) tornOutcome {
		const fleetSize = 24
		f := newFixture(t, fleetSize, func(c *Config) {
			c.CollectWorkers = workers
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
		resp, stranded := tornRollout(t, f)
		if got, want := sortedRows(resp.Result), sortedRows(f.reference(t, basicConsumerSQL)); !reflect.DeepEqual(got, want) {
			t.Errorf("q1: torn rollout cost the old-epoch query coverage:\ngot:  %v\nwant: %v", got, want)
		}
		note(resp)

		// q2: new-epoch query, no fault plan; the stranded wave is stale
		// and stays so.
		q2 := newQuerierForEngine(t, f.eng, "edf2")
		note(strandedQuery(t, f, stranded, Request{Querier: q2, SQL: basicConsumerSQL, Kind: protocol.KindBasic, QueryID: "torn-q2"}))

		// q3: the rollout resumes mid-query; stranded devices recover
		// through the post-walk retry.
		resp, err := f.eng.Execute(context.Background(), Request{
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
		if ledgerCount(resp.Metrics, "deposit-retry") == 0 {
			t.Error("q3: no device was caught stale before the wave landed")
		}
		note(resp)

		// q4: the window closed itself as q3 ended; a clean query sees all.
		if f.eng.rotationInProgress() {
			t.Fatal("rotation still in progress after its last wave landed and q3 ended")
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
}

// TestRotationStaleRuleIgnoresScript: how the walk treats a device a torn
// rollout stranded is engine state, not the request's. A new-epoch S_Agg
// count with no fault plan and one with an empty RotationScript both hold
// to the stale rule, and leave the same rows, accounts and ledger.
func TestRotationStaleRuleIgnoresScript(t *testing.T) {
	var got []string
	for _, faults := range []*faultplan.Plan{nil, {Rotation: &faultplan.RotationScript{}}} {
		f := newFixture(t, 24, nil)
		_, stranded := tornRollout(t, f)
		resp := strandedQuery(t, f, stranded, Request{Querier: newQuerierForEngine(t, f.eng, "edf2"),
			SQL: countSQL, Kind: protocol.KindSAgg, QueryID: "stale-q2", Faults: faults})
		m := resp.Metrics
		got = append(got, fmt.Sprintf("rows %v\naccounts %d %d %d\nledger %+v", sortedRows(resp.Result),
			m.EligibleDevices, m.DepositedDevices, m.CollectErrors, m.Ledger))
	}
	diverge(t, "no fault plan against an empty script:", got[0], got[1])
}

// TestRotationClosesItself: a scripted rotation whose waves all land
// closes its own grace window when the run that began it ends, so the
// next rotation goes ahead. A torn one stays open: RevokeAndRotate refuses
// while a run posted at its old epoch is in flight, and once none is,
// closes the window and rotates, the stranded wave re-keyed with the rest.
func TestRotationClosesItself(t *testing.T) {
	f := newFixture(t, 24, nil)
	_, _, err := runRequest(f.eng, Request{Querier: f.q, SQL: countSQL, Kind: protocol.KindSAgg,
		Faults: &faultplan.Plan{Rotation: &faultplan.RotationScript{AfterDeposits: 6, Waves: 3}}})
	noErr(t, err)
	if f.eng.rotationInProgress() {
		t.Error("every wave landed and the run ended, yet the rotation is in progress")
	}
	noErr(t, f.eng.RevokeAndRotate())
	tornRollout(t, f) // which requires the torn rotation in progress after its run
	f.eng.life.Lock()
	old := int(f.eng.rot.newEpoch) // the wire epoch the rollout left behind
	f.eng.posted[old]++            // a run still in flight there
	f.eng.life.Unlock()
	if err := f.eng.RevokeAndRotate(); err == nil {
		t.Error("RevokeAndRotate went ahead while a run posted at the torn rollout's old epoch is in flight")
	}
	f.eng.leaveEpoch(old)
	noErr(t, f.eng.RevokeAndRotate())
	_, m, err := runQuery(f.eng, newQuerierForEngine(t, f.eng, "after"), countSQL, protocol.KindSAgg, protocol.Params{})
	noErr(t, err)
	if f.eng.rotationInProgress() || m.CollectErrors != 0 {
		t.Errorf("after RevokeAndRotate closed the torn rollout: in progress %v, %d collect errors",
			f.eng.rotationInProgress(), m.CollectErrors)
	}
}

// TestRolloutScheduleDeterminism pins the schedule contract: two engines
// built from the same seed derive bit-identical wave assignments, every
// non-revoked device appears in exactly one wave, and revoked devices in
// none.
func TestRolloutScheduleDeterminism(t *testing.T) {
	const fleetSize, waves = 64, 4
	e1, e2 := newTestEngine(t, fleetSize, nil, nil), newTestEngine(t, fleetSize, nil, nil)
	for _, e := range []*Engine{e1, e2} {
		e.life.Lock()
		err := e.beginRotationLocked(waves, []string{"tds-00001"})
		e.life.Unlock()
		noErr(t, err)
	}
	s1, s2 := rolloutSchedule(e1), rolloutSchedule(e2)
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
}

// TestRevocationRaceSharedCache is the -race gate for the lifecycle
// paths: 16 concurrent queries over one shared fleet interleave
// with a live rotation that revokes one device, wave by wave — 8 posted
// at the old epoch before the rotation begins, 8 posted at the new epoch
// by a re-keyed querier while waves land. Every query must either
// complete with zero integrity violations or fail with a typed abort, and
// once the rotation settles the revoked device answers nothing and the
// grace window has closed itself.
func TestRevocationRaceSharedCache(t *testing.T) {
	f := newFixture(t, 24, nil)
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
	var returned atomic.Int32
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
				returned.Add(1)
			}(i)
		}
	}
	// posted counts the runs that have posted at the current epoch: those
	// still in flight there, and those that have returned.
	old := int(f.eng.keyAuth.Epoch()) + 1
	posted := func() int {
		f.eng.life.RLock()
		defer f.eng.life.RUnlock()
		return f.eng.posted[old] + int(returned.Load())
	}

	// Wave 1 of traffic posts at the old epoch, then the rotation begins
	// underneath it; wave 2 posts at the new epoch (its querier holds the
	// rotated k1) while the rollout is mid-flight.
	launch(0, 8, f.q)
	for start := time.Now(); posted() < 8; {
		if time.Sleep(time.Millisecond); time.Since(start) > 5*time.Second {
			t.Fatal("the old-epoch queries did not all post")
		}
	}
	f.eng.life.Lock()
	err := f.eng.beginRotationLocked(4, []string{victim})
	f.eng.life.Unlock()
	noErr(t, err)
	launch(8, 16, newQuerierForEngine(t, f.eng, "edf-new"))
	for f.eng.pendingWaves() > 0 {
		f.eng.life.Lock()
		err := f.eng.advanceWaveLocked(true)
		f.eng.life.Unlock()
		noErr(t, err)
		time.Sleep(time.Millisecond) // let in-flight queries race the wave
	}
	wg.Wait()

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
	noErr(t, err)
	want := sortedRows(referenceExcluding(t, f, basicConsumerSQL, map[int]bool{7: true})) // the victim's slot
	if got := sortedRows(resp.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("settled rows:\ngot:  %v\nwant: %v", got, want)
	}
	if resp.Metrics.CollectErrors != 1 {
		t.Errorf("settled CollectErrors = %d, want the one revoked device", resp.Metrics.CollectErrors)
	}
	if f.eng.rotationInProgress() {
		t.Error("every wave landed and every query ended, yet the grace window is open")
	}
}
