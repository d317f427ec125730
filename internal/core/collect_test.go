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
// walk where wave width, worker count and commit order could show through:
// a revoked device in a wave that commits as one batch, a SIZE cut-off
// landing inside a wave and inside a deposit, and collect errors early in
// a wave whose members then hold mis-speculated clocks. Each runs at
// CollectWorkers 1, 2 and 8 on both fleet representations, and everything
// the determinism contract covers — rows, the full metrics with their
// ledger, the trace and the journal — must be identical.
func TestCollectWorkersDeterminismWalk(t *testing.T) {
	scenarios := []struct {
		name    string
		fleet   int
		edit    func(*Config)
		prepare func(t *testing.T, f *fixture) // fleet surgery before the query
		sql     string
		kind    protocol.Kind
		faults  *faultplan.Plan
		check   func(t *testing.T, m *Metrics)
	}{{
		name: "revoked-at-interval-0", fleet: 40,
		prepare: func(t *testing.T, f *fixture) {
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
		// One to three Power rows per device: 25 tuples end inside a wave
		// at every width, and may end inside a deposit.
		name: "size-cut-mid-wave", fleet: 40,
		sql: `SELECT P.cid, P.cons FROM Power P SIZE 25`, kind: protocol.KindBasic,
		check: func(t *testing.T, m *Metrics) {
			if m.Nt != 25 || m.DepositedDevices >= 25 {
				t.Errorf("Nt = %d from %d devices, want exactly 25 tuples from fewer devices", m.Nt, m.DepositedDevices)
			}
		},
	}, {
		// More than one wave at every width before the cut (8 workers take
		// 128 devices a wave, one takes 16), so slots are refilled — a three-tuple deposit's
		// buffer by a one-tuple device, and back — before verification
		// reads every stored deposit against its commitment.
		name: "size-cut-after-waves", fleet: 300,
		sql: `SELECT P.cid, P.cons FROM Power P SIZE 500`, kind: protocol.KindBasic,
		check: func(t *testing.T, m *Metrics) {
			if m.Nt != 500 || m.DepositedDevices <= 8*waveChunk || m.IntegrityViolations != 0 ||
				m.IntegrityChecks < m.DepositedDevices {
				t.Errorf("Nt = %d from %d devices, %d checks, %d violations: want 500 verified tuples from more than one full wave",
					m.Nt, m.DepositedDevices, m.IntegrityChecks, m.IntegrityViolations)
			}
		},
	}, {
		// A quarter of the fleet is stuck on a dead epoch whose bundle
		// reached none of it: not revoked, so each connects, fails its
		// Collect and spends no slot, and the clocks speculated for the
		// wave members behind it are a minute ahead. Drops and slow
		// devices vary what a slot costs.
		name: "collect-errors-at-interval", fleet: 10,
		edit: func(c *Config) { c.ConnectionInterval = time.Minute },
		prepare: func(t *testing.T, f *fixture) {
			strandFleet(f.eng)
			err := f.eng.ProvisionFleet(30, func(i int) *storage.LocalDB {
				return householdDB(f.eng.Schema(), 10+i)
			})
			if err != nil {
				t.Fatal(err)
			}
		},
		sql: `SELECT COUNT(*) FROM Power`, kind: protocol.KindSAgg,
		faults: &faultplan.Plan{Seed: 21, DropFraction: 0.1, SlowFraction: 0.3},
		check: func(t *testing.T, m *Metrics) {
			if m.CollectErrors+m.DroppedDeposits < 10 || m.CollectErrors == 0 {
				t.Errorf("CollectErrors = %d, dropped = %d: the 10 dead-epoch devices must each error or drop",
					m.CollectErrors, m.DroppedDeposits)
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
					q := f.q
					if sc.prepare != nil {
						sc.prepare(t, f)
						q = newQuerierForEngine(t, f.eng, "edf") // re-keyed to the rotated ring
					}
					req := Request{Querier: q, SQL: sc.sql, Kind: sc.kind, Faults: sc.faults,
						QueryID: "walk-" + sc.name}
					resp, err := f.eng.Execute(context.Background(), req)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					sc.check(t, resp.Metrics)
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
