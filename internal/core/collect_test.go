package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/storage"
)

// TestCollectWorkersDeterminismWalk pins the corners of the collection
// walk where window width, worker count and commit order could show
// through: a revoked device in a run that commits as one batch, a SIZE
// cut-off inside a run and inside a deposit, collect errors behind which
// clocks were mispredicted, and these again over more than three windows,
// where slots are reused. Each runs at CollectWorkers 1, 2 and 8 on both
// fleet representations; rows, metrics with their ledger, trace and
// journal must be identical, and every stored deposit must verify.
func TestCollectWorkersDeterminismWalk(t *testing.T) {
	scenarios := []struct {
		name    string
		fleet   int
		edit    func(*Config)
		prepare func(t *testing.T, f *fixture, req *Request) // fleet surgery before the query
		sql     string
		kind    protocol.Kind
		faults  *faultplan.Plan
		check   func(t *testing.T, m *Metrics)
	}{{
		name: "revoked-at-interval-0", fleet: 40,
		prepare: func(t *testing.T, f *fixture, _ *Request) {
			if err := f.eng.RevokeAndRotate("tds-00003", "tds-00011", "tds-00020"); err != nil {
				t.Fatal(err)
			}
		},
		sql: `SELECT COUNT(*) FROM Power`, kind: protocol.KindSAgg,
		check: func(t *testing.T, m *Metrics) {
			if m.CollectErrors != 3 || ledgerCount(m, "deposit-revoked") != 0 {
				t.Errorf("CollectErrors = %d with %d deposit-revoked entries, want the 3 revoked devices refused before any deposit",
					m.CollectErrors, ledgerCount(m, "deposit-revoked"))
			}
		},
	}, {
		// One to three Power rows per device: 25 tuples end inside a run
		// at every width, and may end inside a deposit.
		name: "size-cut-mid-wave", fleet: 40,
		sql: `SELECT P.cid, P.cons FROM Power P SIZE 25`, kind: protocol.KindBasic,
		check: func(t *testing.T, m *Metrics) {
			if m.Nt != 25 || m.DepositedDevices >= 25 {
				t.Errorf("Nt = %d from %d devices, want exactly 25 tuples from fewer devices", m.Nt, m.DepositedDevices)
			}
		},
	}, {
		// More than one window at every width before the cut (8 workers hold
		// 128 slots, one holds 16), so slots are refilled — a three-tuple deposit's
		// buffer by a one-tuple device, and back — before verification
		// reads every stored deposit against its commitment.
		name: "size-cut-after-waves", fleet: 300,
		sql: `SELECT P.cid, P.cons FROM Power P SIZE 500`, kind: protocol.KindBasic,
		check: func(t *testing.T, m *Metrics) {
			if m.Nt != 500 || m.DepositedDevices <= 8*waveChunk || m.IntegrityViolations != 0 ||
				m.IntegrityChecks < m.DepositedDevices {
				t.Errorf("Nt = %d from %d devices, %d checks, %d violations: want 500 verified tuples from more than one full window",
					m.Nt, m.DepositedDevices, m.IntegrityChecks, m.IntegrityViolations)
			}
		},
	}, {
		// A quarter of the fleet is stuck on a dead epoch whose bundle
		// reached none of it: not revoked, so each connects, fails its
		// Collect and spends no slot, and the clocks predicted for the
		// devices claimed behind it are a minute ahead. Drops and slow
		// devices vary what a slot costs.
		name: "collect-errors-at-interval", fleet: 10,
		edit:    func(c *Config) { c.ConnectionInterval = time.Minute },
		prepare: func(t *testing.T, f *fixture, _ *Request) { strandAndGrow(t, f, 30) },
		sql:     `SELECT COUNT(*) FROM Power`, kind: protocol.KindSAgg,
		faults: &faultplan.Plan{Seed: 21, DropFraction: 0.1, SlowFraction: 0.3},
		check: func(t *testing.T, m *Metrics) {
			if m.CollectErrors+m.DroppedDeposits < 10 || m.CollectErrors == 0 {
				t.Errorf("CollectErrors = %d, dropped = %d: the 10 dead-epoch devices must each error or drop",
					m.CollectErrors, m.DroppedDeposits)
			}
		},
	}, {
		// 400 devices are more than three windows at every width (8 workers
		// hold 128). The device connecting last in the first window of
		// every width is revoked, the first of the next one drops its
		// deposit, and the SIZE cut lands in the third window of the widest.
		name: "window-boundaries", fleet: 400,
		prepare: func(t *testing.T, f *fixture, req *Request) {
			order := connectionOrder(req.QueryID, 400)
			if err := f.eng.RevokeAndRotate(fmt.Sprintf("tds-%05d", order[127])); err != nil {
				t.Fatal(err)
			}
			req.Faults = &faultplan.Plan{DropFraction: 0.05}
			for !req.Faults.For(fmt.Sprintf("tds-%05d", order[128]), req.QueryID).DropDeposit {
				req.Faults.Seed++
			}
		},
		sql: `SELECT P.cid, P.cons FROM Power P SIZE 600`, kind: protocol.KindBasic,
		check: func(t *testing.T, m *Metrics) {
			if m.Nt != 600 || m.DepositedDevices <= 2*8*waveChunk || m.CollectErrors != 1 || m.DroppedDeposits == 0 {
				t.Errorf("Nt = %d from %d devices, %d collect errors, %d drops: want 600 tuples past two full windows, 1 refused, drops",
					m.Nt, m.DepositedDevices, m.CollectErrors, m.DroppedDeposits)
			}
		},
	}, {
		// At a one-minute interval a dead-epoch device spends no slot, so
		// every clock predicted for the devices claimed behind it is a
		// minute ahead until the window has moved past it.
		name: "collect-error-shifts-window", fleet: 1,
		edit:    func(c *Config) { c.ConnectionInterval = time.Minute },
		prepare: func(t *testing.T, f *fixture, _ *Request) { strandAndGrow(t, f, 399) },
		sql:     `SELECT COUNT(*) FROM Power`, kind: protocol.KindSAgg,
		faults: &faultplan.Plan{Seed: 5, DropFraction: 0.05, SlowFraction: 0.3},
		check: func(t *testing.T, m *Metrics) {
			if m.CollectErrors+m.DroppedDeposits == 0 || m.DepositedDevices < 300 {
				t.Errorf("CollectErrors = %d, dropped = %d, deposited = %d", m.CollectErrors, m.DroppedDeposits, m.DepositedDevices)
			}
		},
	}}
	for _, sc := range scenarios {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%v", sc.name, packed), func(t *testing.T) {
				var want queryOutcome
				for _, workers := range []int{1, 2, 8} {
					f := newFixture(t, sc.fleet, func(c *Config) {
						c.CollectWorkers = workers
						c.PackedFleet = packed
						if sc.edit != nil {
							sc.edit(c)
						}
					})
					req := Request{Querier: f.q, SQL: sc.sql, Kind: sc.kind, Faults: sc.faults,
						QueryID: "walk-" + sc.name}
					if sc.prepare != nil {
						sc.prepare(t, f, &req)
						req.Querier = newQuerierForEngine(t, f.eng, "edf") // re-keyed to the rotated ring
					}
					resp, err := f.eng.Execute(context.Background(), req)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					sc.check(t, resp.Metrics)
					if m := resp.Metrics; m.IntegrityViolations != 0 || m.IntegrityChecks < m.DepositedDevices {
						t.Errorf("workers=%d: %d violations, %d checks of %d deposits", workers,
							m.IntegrityViolations, m.IntegrityChecks, m.DepositedDevices)
					}
					got := outcomeOf(t, req, resp)
					if workers == 1 {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d diverges from workers=1:\n  got:  %+v\n  want: %+v", workers, got, want)
					}
				}
			})
		}
	}
}

// strandAndGrow strands the fixture's fleet on a dead epoch, then adds n live devices.
func strandAndGrow(t *testing.T, f *fixture, n int) {
	strandFleet(f.eng)
	base := f.eng.FleetSize()
	if err := f.eng.ProvisionFleet(n, func(i int) *storage.LocalDB {
		return householdDB(f.eng.Schema(), base+i)
	}); err != nil {
		t.Fatal(err)
	}
}

// sanity check for the fixture IDs used above
func TestFixtureDeviceNaming(t *testing.T) {
	f := newFixture(t, 5, nil)
	if got := f.eng.FleetSize(); got != 5 {
		t.Fatalf("fleet size = %d", got)
	}
	if id := fmt.Sprintf("tds-%05d", 3); id != "tds-00003" {
		t.Fatalf("unexpected ID form %s", id)
	}
}
