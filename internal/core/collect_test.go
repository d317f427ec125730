package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
)

// collectOutcome is everything observable about one run that the parallel
// collection pipeline must reproduce bit-identically.
type collectOutcome struct {
	Rows          []string
	Nt            int64
	TrueTuples    int64
	CollectErrors int
	Groups        int
	PTDS          int
	LoadBytes     int64
	TQ            time.Duration
	Observation   ssi.Observation
}

// runCollectOutcome builds a fresh fixture with the given worker count and
// runs one query, returning its canonical outcome.
func runCollectOutcome(t *testing.T, fleet, workers int, edit func(*Config),
	sql string, kind protocol.Kind, params protocol.Params) collectOutcome {
	t.Helper()
	f := newFixture(t, fleet, func(c *Config) {
		c.CollectWorkers = workers
		if edit != nil {
			edit(c)
		}
	})
	res, m, err := runQuery(f.eng, f.q, sql, kind, params)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	assertDeviceAccounts(t, m, strings.Contains(sql, " SIZE "))
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.Key()
	}
	sort.Strings(rows)
	return collectOutcome{
		Rows: rows, Nt: m.Nt, TrueTuples: m.TrueTuples,
		CollectErrors: m.CollectErrors, Groups: m.Groups, PTDS: m.PTDS,
		LoadBytes: m.LoadBytes, TQ: m.TQ, Observation: m.Observation,
	}
}

// TestCollectWorkersDeterminism runs every protocol with a sequential and a
// parallel collection pipeline and asserts the outcomes — decrypted rows,
// collection metrics, and the SSI's full observation ledger (tag counts and
// byte totals included) — are identical.
func TestCollectWorkersDeterminism(t *testing.T) {
	agg := `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C
	        WHERE C.cid = P.cid GROUP BY C.district`
	cases := []struct {
		kind   protocol.Kind
		sql    string
		params protocol.Params
	}{
		{protocol.KindBasic, `SELECT C.cid, C.district FROM Consumer C`, protocol.Params{}},
		{protocol.KindSAgg, agg, protocol.Params{}},
		{protocol.KindRnfNoise, agg, protocol.Params{Nf: 2}},
		{protocol.KindCNoise, agg, protocol.Params{}},
		{protocol.KindEDHist, agg, protocol.Params{}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			seq := runCollectOutcome(t, 40, 1, nil, tc.sql, tc.kind, tc.params)
			par := runCollectOutcome(t, 40, 8, nil, tc.sql, tc.kind, tc.params)
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("outcomes diverge:\n  seq: %+v\n  par: %+v", seq, par)
			}
			if seq.TrueTuples == 0 {
				t.Error("no true tuples collected; test is vacuous")
			}
		})
	}
}

// TestCollectWorkersDeterminismSizeCap hits the SIZE cutoff mid-wave: the
// batch commit must stop accepting at exactly the tuple where the
// sequential walk would have, and count collect errors only for devices
// the sequential walk would have visited.
func TestCollectWorkersDeterminismSizeCap(t *testing.T) {
	sql := `SELECT C.cid, C.district FROM Consumer C SIZE 7`
	seq := runCollectOutcome(t, 40, 1, nil, sql, protocol.KindBasic, protocol.Params{})
	par := runCollectOutcome(t, 40, 8, nil, sql, protocol.KindBasic, protocol.Params{})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("outcomes diverge:\n  seq: %+v\n  par: %+v", seq, par)
	}
	if seq.Nt != 7 {
		t.Errorf("Nt = %d, want exactly 7 (SIZE clause)", seq.Nt)
	}
}

// TestCollectWorkersDeterminismDuration exercises the non-zero
// ConnectionInterval path, where each wave member collects against a
// speculative clock and the DURATION window cuts collection short.
func TestCollectWorkersDeterminismDuration(t *testing.T) {
	edit := func(c *Config) { c.ConnectionInterval = time.Minute }
	sql := `SELECT COUNT(*) FROM Consumer SIZE DURATION '9m'`
	seq := runCollectOutcome(t, 40, 1, edit, sql, protocol.KindSAgg, protocol.Params{})
	par := runCollectOutcome(t, 40, 8, edit, sql, protocol.KindSAgg, protocol.Params{})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("outcomes diverge:\n  seq: %+v\n  par: %+v", seq, par)
	}
	// 9 minutes at one connection per minute: the window genuinely bound
	// how much of the fleet answered.
	if seq.Nt == 0 || seq.Nt >= 40 {
		t.Errorf("Nt = %d, want a DURATION-bounded slice of the fleet", seq.Nt)
	}
}

// TestCollectWorkersDeterminismWithErrors mixes collect errors into the
// waves: revoked devices stay on a dead key epoch and fail their Collect,
// so speculative clocks of later wave members are wrong and must be
// re-run at the committed clock. The error count and everything downstream
// must still match the sequential engine exactly.
func TestCollectWorkersDeterminismWithErrors(t *testing.T) {
	outcome := func(workers int) collectOutcome {
		f := newFixture(t, 30, func(c *Config) {
			c.CollectWorkers = workers
			c.ConnectionInterval = 30 * time.Second
		})
		if err := f.eng.RevokeAndRotate("tds-00003", "tds-00011", "tds-00020"); err != nil {
			t.Fatal(err)
		}
		// Re-key the querier to the rotated ring.
		cred := f.eng.Authority().Issue("edf", []string{"energy-analyst", "auditor"},
			time.Unix(1700000000, 0).Add(365*24*time.Hour))
		q, err := querier.New("edf", f.eng.K1(), cred, f.eng.Schema())
		if err != nil {
			t.Fatal(err)
		}
		res, m, err := runQuery(f.eng, q, `SELECT COUNT(*) FROM Power`, protocol.KindSAgg, protocol.Params{})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = r.Key()
		}
		sort.Strings(rows)
		return collectOutcome{
			Rows: rows, Nt: m.Nt, TrueTuples: m.TrueTuples,
			CollectErrors: m.CollectErrors, Groups: m.Groups, PTDS: m.PTDS,
			LoadBytes: m.LoadBytes, TQ: m.TQ, Observation: m.Observation,
		}
	}
	seq := outcome(1)
	par := outcome(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("outcomes diverge:\n  seq: %+v\n  par: %+v", seq, par)
	}
	if seq.CollectErrors != 3 {
		t.Errorf("CollectErrors = %d, want 3 (the revoked devices)", seq.CollectErrors)
	}
}

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
		name        string
		fleet       int
		edit        func(*Config)
		prepare     func(t *testing.T, f *fixture) // fleet surgery before the query
		sql         string
		kind        protocol.Kind
		faults      *faultplan.Plan
		sizeBounded bool
		check       func(t *testing.T, m *Metrics)
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
		sizeBounded: true,
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
		sizeBounded: true,
		check: func(t *testing.T, m *Metrics) {
			if m.Nt != 500 || m.DepositedDevices <= 8*waveChunk || m.IntegrityViolations != 0 ||
				m.IntegrityChecks < m.DepositedDevices {
				t.Errorf("Nt = %d from %d devices, %d checks, %d violations: want 500 verified tuples from more than one full wave",
					m.Nt, m.DepositedDevices, m.IntegrityChecks, m.IntegrityViolations)
			}
		},
	}, {
		// A quarter of the fleet is stuck on the dead epoch of a hard
		// cutover: not revoked, so each connects, fails its Collect and
		// spends no slot, and the clocks speculated for the wave members
		// behind it are a minute ahead. Drops and slow devices vary what
		// a slot costs.
		name: "collect-errors-at-interval", fleet: 10,
		edit: func(c *Config) { c.ConnectionInterval = time.Minute },
		prepare: func(t *testing.T, f *fixture) {
			f.eng.RotateKeys()
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
					resp, err := f.eng.Execute(context.Background(), Request{
						Querier: q, SQL: sc.sql, Kind: sc.kind, Faults: sc.faults,
						QueryID: "walk-" + sc.name,
					})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					sc.check(t, resp.Metrics)
					assertDeviceAccounts(t, resp.Metrics, sc.sizeBounded)
					got := outcomeOf(t, resp)
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
