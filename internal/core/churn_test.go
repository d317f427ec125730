package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/obs"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/tds"
)

// churnPlan is the reference fault script of the churn tests: with seed 21
// over the 40-device fixture it takes well over 10% of the fleet out of
// the collection phase (offline windows, mid-transfer disconnects,
// corrupted uploads) and crashes a fifth of phase assignments.
func churnPlan() *faultplan.Plan {
	return &faultplan.Plan{
		Seed:            21,
		OfflineFraction: 0.15,
		DropFraction:    0.10,
		CorruptFraction: 0.10,
		SlowFraction:    0.20,
		CrashFraction:   0.20,
	}
}

// churnScenarios pairs every protocol with a query it supports.
var churnScenarios = []struct {
	kind   protocol.Kind
	sql    string
	params protocol.Params
}{
	{protocol.KindBasic, `SELECT C.cid, C.district FROM Consumer C`, protocol.Params{}},
	{protocol.KindSAgg, flagshipSQL, protocol.Params{PartitionTuples: 4}},
	{protocol.KindRnfNoise, flagshipSQL, protocol.Params{PartitionTuples: 4}},
	{protocol.KindCNoise, flagshipSQL, protocol.Params{PartitionTuples: 4}},
	{protocol.KindEDHist, flagshipSQL, protocol.Params{PartitionTuples: 4}},
}

// TestChurnDecoratedSSIRecord: an injected SSI needs nothing outside
// ssi.Service for its runs to be fully recorded. For every protocol, a
// churned run behind a struct{ ssi.Service } decorator mirrors each ledger
// entry in its journal and returns the journal and trace bytes of the same
// run on the default SSI.
func TestChurnDecoratedSSIRecord(t *testing.T) {
	for _, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			var want [2][]byte
			for i, svc := range []ssi.Service{nil, struct{ ssi.Service }{ssi.NewSharded(0)}} {
				f := newFixture(t, 40, func(c *Config) { c.SSI = svc })
				resp, err := f.eng.Execute(context.Background(), Request{Querier: f.q, SQL: sc.sql,
					Kind: sc.kind, Params: sc.params, QueryID: "decorated", Faults: churnPlan()})
				noErr(t, err)
				if n := resp.Journal.Counts()[obs.JournalLedger]; n == 0 || n != len(resp.Metrics.Ledger) {
					t.Errorf("SSI %T: %d ledger records in the journal, %d entries on the ledger",
						svc, n, len(resp.Metrics.Ledger))
				}
				got := [2][]byte{resp.Journal.Bytes(), traceJSONL(t, resp.Trace)}
				if i > 0 && (!bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1])) {
					t.Error("the decorated SSI's run is not recorded as the default SSI's")
				}
				want = got
			}
		})
	}
}

// TestPhaseErrorDeterminism: a phase in which every assignment fails
// reports the failure lowest in plan order, whoever failed first. Every
// device opens the post but none can decrypt the partitions it is sent (as
// after a fleet went stale between collection and aggregation), so each
// assignment's error names its own device: at one worker that is the
// plan's first, and eight workers racing through forty assignments must
// say the same, twenty times over — although there the first assignment
// is held back until another has failed, so it is never the first to.
func TestPhaseErrorDeterminism(t *testing.T) {
	junk := shuffledParts(benchTuples(160, 4), 4, rand.New(rand.NewSource(5)))
	var want string
	for _, workers := range []int{1, 8} {
		f := newFixture(t, 30, func(c *Config) { c.CollectWorkers = workers })
		post, err := f.q.BuildPost("phase-error", flagshipSQL, protocol.KindSAgg, protocol.Params{})
		noErr(t, err)
		post.Epoch = f.eng.wireEpoch()
		defer f.eng.planCache.Drop(post.ID)
		for rep := 0; rep < 20; rep++ {
			rs := &runState{post: post, rng: rand.New(rand.NewSource(3)), metrics: &Metrics{},
				clock: obs.NewSimClock(obs.SimOrigin()), crew: &crew{n: f.eng.collectWorkers()}}
			_, _, err := f.eng.runPhase(context.Background(), rs, "step", nil,
				func() ([][]protocol.WireTuple, []int32) { return junk, nil }, nil,
				func(w *tds.TDS, p []protocol.WireTuple) ([]protocol.WireTuple, error) {
					for workers > 1 && &p[0] == &junk[0][0] && !rs.crew.failed.Load() {
						runtime.Gosched()
					}
					return w.Aggregate(post, p, tds.EmitWhole)
				})
			rs.crew.stop()
			if err == nil || !strings.Contains(err.Error(), "decrypt partition tuple") {
				t.Fatalf("workers=%d: a phase over undecryptable partitions returned %v", workers, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("workers=%d, repetition %d: %q, want the plan's first failure %q", workers, rep, err, want)
			}
		}
	}
}

// TestChurnReassignedGlobalAggregate: no partition is abandoned. Under a
// plan that crashes most assignees, every aggregate protocol re-issues a
// global aggregate's partitions — its filtering one included — until a
// device returns them, and answers over every deposited tuple, the same
// at one worker and at eight.
func TestChurnReassignedGlobalAggregate(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.KindSAgg, protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist} {
		var want queryOutcome
		for _, workers := range []int{1, 8} {
			f := newFixture(t, 20, func(c *Config) { c.CollectWorkers = workers })
			req := Request{Querier: f.q, SQL: `SELECT COUNT(*), SUM(P.cons) FROM Power P`, Kind: kind,
				Faults: &faultplan.Plan{Seed: 3, CrashFraction: 0.6}}
			resp, err := f.eng.Execute(context.Background(), req)
			noErr(t, err)
			if got := fmt.Sprint(resp.Result.Rows); got != "[(32, 2447)]" {
				t.Errorf("%v workers=%d: rows %s, want [(32, 2447)]", kind, workers, got)
			}
			assertLedgerHas(t, resp.Metrics.Ledger, "reassign", "filtering")
			got := outcomeOf(t, req, resp)
			if workers > 1 && !reflect.DeepEqual(got, want) {
				t.Errorf("%v: the run at %d workers diverges from the one-worker run", kind, workers)
			}
			want = got
		}
	}
}

// TestChurnContextCancellation verifies that an expired context aborts the
// run with the typed timeout sentinel.
func TestChurnContextCancellation(t *testing.T) {
	f := newFixture(t, 20, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.eng.Execute(ctx, Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg, Params: protocol.Params{},
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout", err)
	}

	// A deadline that cannot be met behaves the same mid-run.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	_, err = f.eng.Execute(ctx2, Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg, Params: protocol.Params{},
	})
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("deadline err = %v, want ErrQueryTimeout", err)
	}
}

// TestExecuteTraceDeterminism pins the serialized trace: two identical
// requests on identical fixtures must serialize to the same bytes.
func TestExecuteTraceDeterminism(t *testing.T) {
	params := protocol.Params{PartitionTuples: 4}
	traceOf := func() []byte {
		f := newFixture(t, 20, nil)
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg, Params: params,
		})
		noErr(t, err)
		var buf bytes.Buffer
		noErr(t, resp.Trace.WriteJSONL(&buf))
		return buf.Bytes()
	}
	if a, b := traceOf(), traceOf(); !bytes.Equal(a, b) {
		t.Errorf("traces of identical runs diverge:\n%s\nvs\n%s", a, b)
	}
}

// TestExecuteValidation pins the required-field checks of the single entry
// point.
func TestExecuteValidation(t *testing.T) {
	f := newFixture(t, 20, nil)
	if _, err := f.eng.Execute(context.Background(), Request{SQL: flagshipSQL}); err == nil {
		t.Fatal("Execute accepted a request without a querier")
	}
	if _, err := f.eng.Execute(context.Background(), Request{Querier: f.q}); err == nil {
		t.Fatal("Execute accepted a request without SQL")
	}
}
