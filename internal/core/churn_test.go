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

// TestChurnAllProtocolsComplete loses a scripted slice of the fleet mid
// collection — offline, dropped and corrupt deposits — and requires every
// protocol to still complete, reporting the exact coverage ratio.
func TestChurnAllProtocolsComplete(t *testing.T) {
	for _, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			f := newFixture(t, 40, nil)
			plan := churnPlan()
			resp, err := f.eng.Execute(context.Background(), Request{
				Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params, Faults: plan,
			})
			if err != nil {
				t.Fatalf("churned %v run failed: %v", sc.kind, err)
			}
			m := resp.Metrics
			if resp.Result == nil {
				t.Fatal("no result")
			}
			if m.EligibleDevices != 40 {
				t.Fatalf("eligible = %d, want the whole fleet", m.EligibleDevices)
			}
			lost := m.OfflineDevices + m.DroppedDeposits + m.CorruptDeposits
			if lost < m.EligibleDevices/10 {
				t.Fatalf("scripted churn only removed %d of %d devices; want >= 10%%",
					lost, m.EligibleDevices)
			}
			want := float64(m.DepositedDevices) / float64(m.EligibleDevices)
			if m.CoverageRatio != want {
				t.Fatalf("coverage ratio %v, want exactly %v", m.CoverageRatio, want)
			}
			if m.CoverageRatio <= 0 || m.CoverageRatio >= 1 {
				t.Fatalf("coverage ratio %v not in (0,1) despite churn", m.CoverageRatio)
			}
			if m.DepositedDevices+lost != m.EligibleDevices {
				t.Fatalf("device account does not close: %d deposited + %d lost != %d eligible",
					m.DepositedDevices, lost, m.EligibleDevices)
			}
			assertDeviceAccounts(t, m, false)
			if len(m.Ledger) == 0 {
				t.Fatal("churn left no trace in the recovery ledger")
			}
		})
	}
}

// TestChurnDeterminism requires bit-identical results, metrics and
// recovery ledgers for a fixed fault seed at CollectWorkers 1 and 8.
func TestChurnDeterminism(t *testing.T) {
	for _, sc := range churnScenarios {
		t.Run(sc.kind.String(), func(t *testing.T) {
			type outcome struct {
				rows    []string
				metrics Metrics
			}
			runAt := func(workers int) outcome {
				f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = workers })
				resp, err := f.eng.Execute(context.Background(), Request{
					Querier: f.q, SQL: sc.sql, Kind: sc.kind, Params: sc.params,
					Faults: churnPlan(),
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				assertDeviceAccounts(t, resp.Metrics, false)
				m := *resp.Metrics
				m.TLocal = 0 // mean of identical sums; avoid float-free divergence noise
				return outcome{rows: sortedRows(resp.Result), metrics: m}
			}
			seq, par := runAt(1), runAt(8)
			if !reflect.DeepEqual(seq.rows, par.rows) {
				t.Errorf("results diverge:\nworkers=1: %v\nworkers=8: %v", seq.rows, par.rows)
			}
			if !reflect.DeepEqual(seq.metrics.Ledger, par.metrics.Ledger) {
				t.Errorf("recovery ledgers diverge:\nworkers=1: %+v\nworkers=8: %+v",
					seq.metrics.Ledger, par.metrics.Ledger)
			}
			if !reflect.DeepEqual(seq.metrics, par.metrics) {
				t.Errorf("metrics diverge:\nworkers=1: %+v\nworkers=8: %+v",
					seq.metrics, par.metrics)
			}
		})
	}
}

// TestCorruptDepositRejectedAtAdmission scripts only corrupt uploads — the
// device seals its checksum in its collection worker, one transport bit
// flips on the way — and requires the SSI's recomputation to catch every
// one of them, and nothing else, at one worker and at eight.
func TestCorruptDepositRejectedAtAdmission(t *testing.T) {
	for _, workers := range []int{1, 8} {
		f := newFixture(t, 40, func(c *Config) { c.CollectWorkers = workers })
		plan := &faultplan.Plan{Seed: 5, CorruptFraction: 0.3}
		const id = "q-corrupt"
		want := map[string]bool{}
		for i := range f.dbs {
			if dev := f.eng.deviceID(i); plan.For(dev, id).CorruptDeposit {
				want[dev] = true
			}
		}
		if len(want) == 0 || len(want) == len(f.dbs) {
			t.Fatalf("the plan corrupts %d of %d devices; the test needs some of each", len(want), len(f.dbs))
		}
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg, QueryID: id, Faults: plan,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m := resp.Metrics
		if m.CorruptDeposits != len(want) || m.DepositedDevices != len(f.dbs)-len(want) {
			t.Errorf("workers=%d: %d corrupt and %d deposited, want %d and %d", workers,
				m.CorruptDeposits, m.DepositedDevices, len(want), len(f.dbs)-len(want))
		}
		for _, le := range m.Ledger {
			if le.Kind != "deposit-corrupt" || !want[le.Device] {
				t.Errorf("workers=%d: unexpected ledger entry %+v", workers, le)
			}
			delete(want, le.Device)
		}
		if len(want) != 0 {
			t.Errorf("workers=%d: corrupt deposits of %v were not rejected", workers, want)
		}
		assertDeviceAccounts(t, m, false)
	}
}

// TestChurnCrashRecoveryIsLossless scripts only phase crashes (the
// collection is clean), so the SSI's timeout/backoff/re-issue machinery
// must recover every partition and the result must equal the reference.
func TestChurnCrashRecoveryIsLossless(t *testing.T) {
	f := newFixture(t, 30, nil)
	want := f.reference(t, flagshipSQL)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: &faultplan.Plan{Seed: 9, CrashFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, resp.Result, want)
	m := resp.Metrics
	if m.Timeouts == 0 || m.Reassignments == 0 {
		t.Fatalf("crash plan injected nothing: timeouts=%d reassignments=%d",
			m.Timeouts, m.Reassignments)
	}
	if m.RetryWait == 0 {
		t.Fatal("re-issues billed no timeout/backoff wait")
	}
	if m.CoverageRatio != 1 {
		t.Fatalf("clean collection reported coverage %v", m.CoverageRatio)
	}
	reassigns := 0
	for _, le := range m.Ledger {
		if le.Kind == "reassign" {
			if le.Device == "" || le.Phase == "" || le.Wait <= 0 {
				t.Fatalf("malformed reassign entry: %+v", le)
			}
			reassigns++
		}
	}
	if reassigns != m.Timeouts {
		t.Fatalf("ledger records %d reassigns, metrics count %d timeouts", reassigns, m.Timeouts)
	}
}

// TestChurnMaxAttemptsDegradesGracefully crashes every assignment; with a
// retry cap the SSI must abandon partitions and still terminate.
func TestChurnMaxAttemptsDegradesGracefully(t *testing.T) {
	f := newFixture(t, 20, nil)
	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: &faultplan.Plan{Seed: 3, CrashFraction: 1, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := resp.Metrics
	if m.PartitionsAbandoned == 0 {
		t.Fatal("universal crashing with MaxAttempts=2 abandoned nothing")
	}
	abandoned := 0
	for _, le := range m.Ledger {
		if le.Kind == "partition-abandoned" {
			abandoned++
		}
	}
	if abandoned != m.PartitionsAbandoned {
		t.Fatalf("ledger records %d abandonments, metrics count %d", abandoned, m.PartitionsAbandoned)
	}
}

// TestCrashVictimsAreScripted: who dies mid-partition is a function of
// (fault seed, device, query ID) and of nothing else. Availability, audit
// replication, the collection worker count and the fleet representation
// all change which devices get drawn as assignees, and none of them may
// change which of the drawn ones die: every reassign and
// partition-abandoned entry, in every cell, names a device the plan
// scripts to crash — one fixed set, which a draw from the run RNG could
// not give.
func TestCrashVictimsAreScripted(t *testing.T) {
	const fleetSize, qid = 40, "crash-victims-pin"
	plan := &faultplan.Plan{Seed: 21, CrashFraction: 0.3, MaxAttempts: 2}
	crashers := map[string]bool{}
	for i := 0; i < fleetSize; i++ {
		if dev := packedID(i); plan.For(dev, qid).CrashInPhase {
			crashers[dev] = true
		}
	}
	if len(crashers) == 0 || len(crashers) == fleetSize {
		t.Fatalf("the plan crashes %d of %d devices; the test needs some of each", len(crashers), fleetSize)
	}
	kinds := map[string]int{}
	victimSets := map[string]bool{}
	for _, available := range []float64{0.1, 0.5} {
		for _, replicas := range []int{1, 3} {
			for _, workers := range []int{1, 8} {
				for _, packed := range []bool{false, true} {
					f := newFixture(t, fleetSize, func(c *Config) {
						c.AvailableFraction = available
						c.AuditReplicas = replicas
						c.CollectWorkers = workers
						c.PackedFleet = packed
					})
					resp, err := f.eng.Execute(context.Background(), Request{
						Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg, QueryID: qid,
						Params: protocol.Params{PartitionTuples: 4}, Faults: plan,
					})
					cell := fmt.Sprintf("available=%v replicas=%d workers=%d packed=%v",
						available, replicas, workers, packed)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					var victims []string
					for _, le := range resp.Metrics.Ledger {
						if le.Kind != "reassign" && le.Kind != "partition-abandoned" {
							continue
						}
						kinds[le.Kind]++
						victims = append(victims, le.Device)
						if !crashers[le.Device] {
							t.Errorf("%s: %s names %s, which the plan does not crash", cell, le.Kind, le.Device)
						}
					}
					victimSets[fmt.Sprint(victims)] = true
				}
			}
		}
	}
	if kinds["reassign"] == 0 || kinds["partition-abandoned"] == 0 {
		t.Errorf("the sweep saw %v; it needs both reassignments and abandonments", kinds)
	}
	if len(victimSets) < 2 {
		t.Error("every cell drew the same victims in the same order; the sweep does not vary the draw")
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
		if err != nil {
			t.Fatal(err)
		}
		post.Epoch = f.eng.wireEpoch()
		defer f.eng.planCache.Drop(post.ID)
		for rep := 0; rep < 20; rep++ {
			rs := &runState{post: post, rng: rand.New(rand.NewSource(3)), metrics: &Metrics{},
				clock: obs.NewSimClock(obs.SimOrigin()), crew: &crew{n: f.eng.collectWorkers()}}
			_, _, err := f.eng.runPhase(context.Background(), rs, "step", junk,
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

// TestChurnCoverageFloor verifies both sides of the floor: a run that
// keeps enough of the fleet passes, one that loses too much fails with the
// typed sentinel and still reports the exact ratio path via the error.
func TestChurnCoverageFloor(t *testing.T) {
	f := newFixture(t, 40, nil)
	_, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: &faultplan.Plan{Seed: 2, OfflineFraction: 0.9, CoverageFloor: 0.5},
	})
	if !errors.Is(err, ErrCoverageBelowFloor) {
		t.Fatalf("err = %v, want ErrCoverageBelowFloor", err)
	}

	resp, err := f.eng.Execute(context.Background(), Request{
		Querier: f.q, SQL: flagshipSQL, Kind: protocol.KindSAgg,
		Params: protocol.Params{PartitionTuples: 4},
		Faults: &faultplan.Plan{Seed: 2, OfflineFraction: 0.1, CoverageFloor: 0.5},
	})
	if err != nil {
		t.Fatalf("mild churn tripped the floor: %v", err)
	}
	if resp.Metrics.CoverageRatio < 0.5 {
		t.Fatalf("coverage %v below the floor yet the run passed", resp.Metrics.CoverageRatio)
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
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := resp.Trace.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
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
