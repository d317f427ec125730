package ssi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlparse"
)

// queryRecord is everything one query of the stripe script left visible.
type queryRecord struct {
	Outcomes    []string // accepted count and rejection of every deposit, in order
	Ledger      []LedgerEntry
	Observation Observation
	Collected   []protocol.WireTuple
	BytesStored int64
	Builds      [][][]protocol.WireTuple // random, by-tag, stream, re-issue
}

// runStripeScript drives one fixed sequence over every ID, step by step
// across the IDs so a stripe holds several live queries at once, and
// returns what each query shows just before it is dropped.
func runStripeScript(t *testing.T, s *SSI, ids []string) map[string]*queryRecord {
	t.Helper()
	recs := make(map[string]*queryRecord, len(ids))
	tuplesOf := func(i, dev int) []protocol.WireTuple {
		ws := make([]protocol.WireTuple, 1+(i+dev)%3)
		for k := range ws {
			ws[k] = tuple(fmt.Sprintf("g%d", (i+k)%4), 8+dev)
		}
		return ws
	}
	for _, id := range ids {
		p := post(id, sqlparse.SizeClause{})
		p.Epoch = 2
		must(t, s.PostQuery(p, t0))
		recs[id] = &queryRecord{}
	}
	send := func(id string, dep *protocol.Deposit) {
		n, done, err := s.DepositEnvelope(id, dep, t0)
		recs[id].Outcomes = append(recs[id].Outcomes, fmt.Sprint(n, done, err))
	}
	for i, id := range ids {
		send(id, protocol.NewDeposit(id, "tds-00001", 1, 2, tuplesOf(i, 1)))
		send(id, protocol.NewDeposit(id, "tds-00002", 1, 2, tuplesOf(i, 2)))
	}
	for i, id := range ids {
		send(id, protocol.NewDeposit(id, "tds-00001", 1, 2, tuplesOf(i, 1))) // replay
		corrupt := protocol.NewDeposit(id, "tds-00003", 1, 2, tuplesOf(i, 3))
		corrupt.Sum ^= 0x1
		send(id, corrupt)
		send(id, protocol.NewDeposit(id, "tds-00004", 1, 1, tuplesOf(i, 4))) // stale epoch
		send(id, protocol.NewDeposit(id, "tds-00003", 1, 2, tuplesOf(i, 3))) // clean retry
	}
	for i, id := range ids {
		s.ObserveRelay(id, tuplesOf(i, 5), t0)
		s.Record(id, LedgerEntry{Kind: "deposit-corrupt", Device: "tds-00003", Attempt: 1, At: t0})
		s.Record(id, LedgerEntry{Kind: "reassign", Phase: "aggregate-1", Device: "tds-00002", Attempt: i, At: t0})
	}
	for i, id := range ids {
		r := recs[id]
		all := s.CollectedTuples(id)
		r.Builds = append(r.Builds, s.PartitionRandom(id, all, 2, rand.New(rand.NewSource(int64(i)))))
		r.Builds = append(r.Builds, s.PartitionByTag(id, all, 2))
		stream, _ := s.StreamBuild(id, 3)
		re, _ := s.Repartition(id)
		r.Builds = append(r.Builds, stream, re)
		if !reflect.DeepEqual(r.Builds[3], r.Builds[2]) {
			t.Errorf("%s: Repartition differs from the last build", id)
		}
	}
	for _, id := range ids {
		r := recs[id]
		r.Ledger, r.Observation = s.LedgerFor(id), s.ObservationFor(id)
		r.Collected, r.BytesStored = s.CollectedTuples(id), s.BytesStored(id)
		if s.CollectedCount(id) != len(r.Collected) || len(r.Collected) == 0 {
			t.Errorf("%s: count %d, collected %d", id, s.CollectedCount(id), len(r.Collected))
		}
		s.Drop(id)
		if re, _ := s.Repartition(id); s.BytesStored(id) != 0 || s.CollectedCount(id) != 0 || re != nil {
			t.Errorf("%s: drop left state behind", id)
		}
	}
	return recs
}

// TestStripesAgree: the stripe count is invisible to a query. The same
// script over the same IDs leaves identical per-query state on one stripe
// and on sixteen, with IDs that share a stripe and IDs that do not.
func TestStripesAgree(t *testing.T) {
	ids := make([]string, 40)
	for i := range ids {
		ids[i] = fmt.Sprintf("q-%06d", i+1)
	}
	one, many := NewSharded(1), NewSharded(0)
	if len(one.stripes) != 1 || len(many.stripes) != DefaultShards {
		t.Fatalf("stripes = %d and %d", len(one.stripes), len(many.stripes))
	}
	var shared, apart bool
	for _, id := range ids[1:] {
		if many.stripeOf(id) == many.stripeOf(ids[0]) {
			shared = true
		} else {
			apart = true
		}
	}
	if !shared || !apart {
		t.Fatalf("IDs must both share and split stripes: shared=%v apart=%v", shared, apart)
	}
	want, got := runStripeScript(t, one, ids), runStripeScript(t, many, ids)
	for _, id := range ids {
		if !reflect.DeepEqual(want[id], got[id]) {
			t.Errorf("%s diverges across stripe counts:\n 1: %+v\n16: %+v", id, want[id], got[id])
		}
	}
}

// TestEpochPolicyOnePerBatch: a deposit call reads the fleet-wide policy
// once. While one goroutine flips the grace window, every batch admits all
// of its previous-epoch envelopes or none of them; and once the call that
// revoked a device has returned, every later batch rejects it.
func TestEpochPolicyOnePerBatch(t *testing.T) {
	const (
		epoch     = 3
		queries   = 8
		oldPerRun = 4
		revokeAt  = 40 // toggles before the victim is revoked
		tailRuns  = 40 // batches each depositor sends after seeing the revocation
		maxRuns   = 200000
		victim    = "tds-victim"
	)
	s := NewSharded(0)
	ids := make([]string, queries)
	for i := range ids {
		ids[i] = fmt.Sprintf("q-%06d", i+1)
		p := post(ids[i], sqlparse.SizeClause{})
		p.Epoch = epoch
		must(t, s.PostQuery(p, t0))
	}
	var revoked atomic.Bool
	stop := make(chan struct{})
	var toggler, depositors sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := EpochPolicy{Epoch: epoch, Grace: i%2 == 0}
			if i >= revokeAt {
				p.Revoked = []string{victim}
			}
			s.SetEpochPolicy(p)
			if i == revokeAt {
				revoked.Store(true)
			}
		}
	}()
	for _, id := range ids {
		depositors.Add(1)
		go func(id string) {
			defer depositors.Done()
			tail := 0
			for run := 1; tail < tailRuns; run++ {
				if run > maxRuns {
					t.Errorf("%s: the revocation never landed", id)
					return
				}
				wasRevoked := revoked.Load()
				// Attempts advance per run, so no envelope is a replay.
				deps := []*protocol.Deposit{
					protocol.NewDeposit(id, victim, run, epoch, []protocol.WireTuple{tuple("", 4)}),
				}
				for k := 0; k < oldPerRun; k++ {
					dev := fmt.Sprintf("tds-%05d", k)
					deps = append(deps,
						protocol.NewDeposit(id, dev+"-old", run, epoch-1, []protocol.WireTuple{tuple("", 4)}),
						protocol.NewDeposit(id, dev+"-new", run, epoch, []protocol.WireTuple{tuple("", 4)}))
				}
				out, _, _, err := s.DepositEnvelopeBatch(id, deps, t0)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				if wasRevoked {
					tail++
					if !errors.Is(out[0].Err, ErrRevokedDeposit) {
						t.Errorf("%s run %d: revoked device got %+v", id, run, out[0])
					}
				}
				stale := 0
				for i := 1; i < len(out); i++ {
					switch {
					case deps[i].Epoch == epoch && out[i].Err != nil:
						t.Errorf("%s run %d: current-epoch envelope rejected: %v", id, run, out[i].Err)
					case errors.Is(out[i].Err, ErrStaleDeposit):
						stale++
					case out[i].Err != nil:
						t.Errorf("%s run %d: %v", id, run, out[i].Err)
					}
				}
				if stale != 0 && stale != oldPerRun {
					t.Errorf("%s run %d: %d of %d previous-epoch envelopes stale — two policies in one batch",
						id, run, stale, oldPerRun)
				}
			}
		}(id)
	}
	depositors.Wait()
	close(stop)
	toggler.Wait()
}

// TestStripesConcurrentDepositEnvelope: DepositEnvelope calls of one
// query from several goroutines each get their own outcome — an accepted
// count, or a replay's rejection — never another call's.
func TestStripesConcurrentDepositEnvelope(t *testing.T) {
	s := NewSharded(1)
	if err := s.PostQuery(post("q1", sqlparse.SizeClause{}), t0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dev := fmt.Sprintf("g%d-%d", g, i)
				tuples := make([]protocol.WireTuple, g)
				for j := range tuples {
					tuples[j] = tuple("", 4)
				}
				dep := protocol.NewDeposit("q1", dev, 1, 0, tuples)
				if n, _, err := s.DepositEnvelope("q1", dep, t0); n != g || err != nil {
					t.Errorf("%s: accepted %d (%v), want %d", dev, n, err, g)
				}
				if n, _, err := s.DepositEnvelope("q1", dep, t0); n != 0 || !errors.Is(err, ErrStaleDeposit) {
					t.Errorf("%s replayed: accepted %d (%v), want a stale rejection", dev, n, err)
				}
			}
		}()
	}
	wg.Wait()
}
