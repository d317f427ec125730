package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/ssi"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func meterSchema() *storage.Schema {
	return storage.MustSchema(
		storage.TableDef{Name: "Power", Columns: []storage.Column{
			{Name: "cid", Kind: storage.KindInt},
			{Name: "cons", Kind: storage.KindFloat},
			{Name: "period", Kind: storage.KindInt},
		}},
		storage.TableDef{Name: "Consumer", Columns: []storage.Column{
			{Name: "cid", Kind: storage.KindInt},
			{Name: "district", Kind: storage.KindString},
			{Name: "accommodation", Kind: storage.KindString},
		}},
	)
}

var districts = []string{"Paris", "Lyon", "Lille", "Nantes", "Metz"}

// householdDB deterministically populates one TDS database.
func householdDB(schema *storage.Schema, i int) *storage.LocalDB {
	rng := rand.New(rand.NewSource(int64(i) + 42))
	db := storage.NewLocalDB(schema)
	district := districts[i%len(districts)]
	acc := "detached house"
	if i%3 == 0 {
		acc = "flat"
	}
	must(db.Insert("Consumer", storage.Row{
		storage.Int(int64(i)), storage.Str(district), storage.Str(acc)}))
	readings := 1 + rng.Intn(3)
	for p := 0; p < readings; p++ {
		must(db.Insert("Power", storage.Row{
			storage.Int(int64(i)),
			storage.Float(50 + 10*float64(i%7) + float64(p)),
			storage.Int(int64(p)),
		}))
	}
	return db
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

type fixture struct {
	eng *Engine
	q   *querier.Querier
	dbs []*storage.LocalDB
}

func newFixture(t *testing.T, fleetSize int, cfgEdit func(*Config)) *fixture {
	t.Helper()
	f := &fixture{}
	f.eng = newTestEngine(t, fleetSize, cfgEdit, func(db *storage.LocalDB) { f.dbs = append(f.dbs, db) })
	f.q = newQuerierForEngine(t, f.eng, "edf")
	return f
}

// newTestEngine provisions fleetSize householdDBs behind an engine of the
// tests' config, which cfgEdit (nil for none) adjusts. keep (nil for none)
// is handed each database as it is populated; the engine retains none.
func newTestEngine(t testing.TB, fleetSize int, cfgEdit func(*Config), keep func(*storage.LocalDB)) *Engine {
	t.Helper()
	cfg := Config{
		Schema: meterSchema(),
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{{
			Role: "energy-analyst", AggregateOnly: true,
		}, {
			Role: "auditor",
		}}},
		AuthorityKey:      tdscrypto.DeriveKey(tdscrypto.Key{}, "authority"),
		MasterKey:         tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
		AvailableFraction: 0.5,
		Seed:              7,
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	eng, err := NewEngine(cfg)
	noErr(t, err)
	if err := eng.ProvisionFleet(fleetSize, func(i int) *storage.LocalDB {
		db := householdDB(cfg.Schema, i)
		if keep != nil {
			keep(db)
		}
		return db
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}

// insert records a row on device i: in its slot, through Engine.Insert,
// and in the copy of its database the reference queries read.
func (f *fixture) insert(t *testing.T, i int, table string, row storage.Row) {
	t.Helper()
	noErr(t, f.eng.Insert(slotID(i), table, row))
	noErr(t, f.dbs[i].Insert(table, row))
}

// reference runs the query standalone over the union of all databases.
func (f *fixture) reference(t *testing.T, sql string) *sqlexec.Result {
	t.Helper()
	return referenceExcluding(t, f, sql, nil)
}

// run is runQuery through the fixture's engine and querier, failing the
// test on an error.
func (f *fixture) run(t *testing.T, sql string, kind protocol.Kind, params protocol.Params) (*sqlexec.Result, *Metrics) {
	t.Helper()
	got, m, err := runQuery(f.eng, f.q, sql, kind, params)
	noErr(t, err)
	return got, m
}

// sortedRows canonicalizes result rows for comparison.
func sortedRows(r *sqlexec.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	sort.Strings(out)
	return out
}

func assertSameResult(t *testing.T, got, want *sqlexec.Result) {
	t.Helper()
	g, w := sortedRows(got), sortedRows(want)
	if len(g) != len(w) {
		t.Fatalf("row count %d, want %d\ngot:  %v\nwant: %v", len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("row %d: %s, want %s", i, g[i], w[i])
		}
	}
}

const flagshipSQL = `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
	`WHERE C.accommodation = 'detached house' AND C.cid = P.cid ` +
	`GROUP BY C.district HAVING COUNT(DISTINCT C.cid) >= 2`

func aggProtocols() []struct {
	kind   protocol.Kind
	params protocol.Params
} {
	return []struct {
		kind   protocol.Kind
		params protocol.Params
	}{
		{protocol.KindSAgg, protocol.Params{}},
		{protocol.KindRnfNoise, protocol.Params{Nf: 2}},
		{protocol.KindRnfNoise, protocol.Params{Nf: 10}},
		{protocol.KindCNoise, protocol.Params{}},
		{protocol.KindEDHist, protocol.Params{}},
		{protocol.KindEDHist, protocol.Params{NumBuckets: 2}},
	}
}

func TestAllProtocolsMatchReference(t *testing.T) {
	f := newFixture(t, 40, nil)
	want := f.reference(t, flagshipSQL)
	if len(want.Rows) == 0 {
		t.Fatal("fixture produces an empty reference — test is vacuous")
	}
	for _, pc := range aggProtocols() {
		name := fmt.Sprintf("%v/nf=%d/m=%d", pc.kind, pc.params.Nf, pc.params.NumBuckets)
		t.Run(name, func(t *testing.T) {
			got, m := f.run(t, flagshipSQL, pc.kind, pc.params)
			assertSameResult(t, got, want)
			if m.Nt == 0 || m.PTDS == 0 || m.TQ <= 0 || m.LoadBytes <= 0 {
				t.Errorf("suspicious metrics: %+v", m)
			}
		})
	}
}

func TestBasicSFWProtocol(t *testing.T) {
	f := newFixture(t, 25, nil)
	sql := `SELECT C.cid, C.district FROM Consumer C WHERE C.accommodation = 'flat'`
	want := f.reference(t, sql)
	got, m := f.run(t, sql, protocol.KindBasic, protocol.Params{})
	assertSameResult(t, got, want)
	if m.PTDS == 0 {
		t.Error("filtering phase mobilized no TDS")
	}
	// Dummy tuples hide selectivity: every queried TDS contributes at
	// least one wire tuple even when its WHERE result is empty.
	if m.Nt < int64(f.eng.FleetSize()) {
		t.Errorf("Nt = %d, want >= fleet size %d (dummies)", m.Nt, f.eng.FleetSize())
	}
}

func TestSizeClauseStopsCollection(t *testing.T) {
	f := newFixture(t, 30, nil)
	sql := `SELECT C.cid, C.district FROM Consumer C SIZE 5`
	got, m := f.run(t, sql, protocol.KindBasic, protocol.Params{})
	if m.Nt != 5 {
		t.Errorf("Nt = %d, want exactly 5 (SIZE clause)", m.Nt)
	}
	if len(got.Rows) > 5 {
		t.Errorf("rows = %d, want <= 5", len(got.Rows))
	}
}

func TestGlobalAggregate(t *testing.T) {
	f := newFixture(t, 20, nil)
	sql := `SELECT COUNT(*), AVG(cons), MIN(cons), MAX(cons), MEDIAN(cons) FROM Power`
	want := f.reference(t, sql)
	got, _ := f.run(t, sql, protocol.KindSAgg, protocol.Params{})
	assertSameResult(t, got, want)
}

// filteringPadder pads every random build of at most one tuple — a global
// aggregate's filtering build — with two empty partitions, which the
// partition-multiset check admits.
type filteringPadder struct{ ssi.Service }

func (p filteringPadder) PartitionRandom(id string, tuples []protocol.WireTuple, per int, r *rand.Rand) [][]protocol.WireTuple {
	parts := p.Service.PartitionRandom(id, tuples, per, r)
	if len(tuples) > 1 {
		return parts
	}
	return append(parts, nil, nil)
}

// TestGlobalAggregateOverNoMatches: a global aggregate over no true tuple
// answers (0, NULL) under every aggregate protocol and worker count, from
// its one filtering unit — through its reassignment when that unit's
// first assignee crashes, and however many empty partitions the SSI pads
// the filtering build with.
func TestGlobalAggregateOverNoMatches(t *testing.T) {
	crash := &faultplan.Plan{Seed: 7, CrashFraction: 0.3} // its one crash: S_Agg's first filtering assignee
	for _, kind := range []protocol.Kind{protocol.KindSAgg, protocol.KindRnfNoise, protocol.KindCNoise, protocol.KindEDHist} {
		for _, workers := range []int{1, 8} {
			for _, v := range []struct {
				faults *faultplan.Plan
				padded bool
			}{{}, {faults: crash}, {padded: true}} {
				if v.faults != nil && (kind != protocol.KindSAgg || workers != 1) {
					continue
				}
				f := newFixture(t, 10, func(c *Config) {
					c.CollectWorkers = workers
					if v.padded {
						c.SSI = filteringPadder{ssi.NewSharded(1)}
					}
				})
				resp, err := f.eng.Execute(context.Background(), Request{Querier: f.q, Kind: kind, Faults: v.faults,
					SQL: `SELECT COUNT(*), SUM(cons) FROM Power WHERE cons < 0`})
				noErr(t, err)
				m, rows := resp.Metrics, fmt.Sprint(resp.Result.Rows)
				if last := m.Phases[len(m.Phases)-1]; rows != "[(0, NULL)]" || m.Groups != 1 || last.Name != "filtering" || last.Units != 1 {
					t.Errorf("%v workers=%d padded=%v: rows %s, %d groups, last phase %+v; want (0, NULL), 1 group, one filtering unit",
						kind, workers, v.padded, rows, m.Groups, last)
				}
				if v.faults != nil {
					assertLedgerHas(t, m.Ledger, "reassign", "filtering")
				}
			}
		}
	}
}

func TestGroupedAggregateOverNoMatches(t *testing.T) {
	f := newFixture(t, 10, nil)
	sql := `SELECT district, COUNT(*) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid AND cons < 0 GROUP BY district`
	got, _ := f.run(t, sql, protocol.KindSAgg, protocol.Params{})
	if len(got.Rows) != 0 {
		t.Fatalf("rows = %v, want empty", got.Rows)
	}
}

func TestAccessControlDeniedQuerier(t *testing.T) {
	f := newFixture(t, 10, nil)
	cred := f.eng.Authority().Issue("mallory", []string{"energy-analyst"},
		time.Unix(1700000000, 0).Add(time.Hour))
	mallory, err := querier.New("mallory", f.eng.K1(), cred, f.eng.Schema())
	noErr(t, err)
	// energy-analyst is AggregateOnly: the identifying query must come
	// back empty — every TDS contributes only dummies (step 4').
	sql := `SELECT cid, cons FROM Power`
	got, m, err := runQuery(f.eng, mallory, sql, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if len(got.Rows) != 0 {
		t.Fatalf("denied query returned %d rows", len(got.Rows))
	}
	// The SSI cannot tell: it still saw one tuple per TDS.
	if m.Nt != int64(f.eng.FleetSize()) {
		t.Errorf("Nt = %d, want %d dummies", m.Nt, f.eng.FleetSize())
	}
}

func TestExpiredCredential(t *testing.T) {
	f := newFixture(t, 8, nil)
	cred := f.eng.Authority().Issue("edf", []string{"auditor"},
		time.Unix(1700000000, 0).Add(-time.Hour))
	stale, err := querier.New("edf", f.eng.K1(), cred, f.eng.Schema())
	noErr(t, err)
	got, _, err := runQuery(f.eng, stale, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if len(got.Rows) != 0 {
		t.Fatalf("expired credential yielded %d rows", len(got.Rows))
	}
}

func TestProtocolQueryKindMismatch(t *testing.T) {
	f := newFixture(t, 4, nil)
	if _, _, err := runQuery(f.eng, f.q, `SELECT cid FROM Consumer`, protocol.KindSAgg, protocol.Params{}); err == nil {
		t.Error("SFW under S_Agg accepted")
	}
	if _, _, err := runQuery(f.eng, f.q, `SELECT COUNT(*) FROM Consumer`, protocol.KindBasic, protocol.Params{}); err == nil {
		t.Error("aggregate under Basic accepted")
	}
	if _, _, err := runQuery(f.eng, f.q, `not sql`, protocol.KindBasic, protocol.Params{}); err == nil {
		t.Error("garbage SQL accepted")
	}
}

func TestSSISeesNoPlaintextAndFlatTags(t *testing.T) {
	f := newFixture(t, 40, nil)

	// S_Agg: no tags at all — nothing for a frequency attack to chew on.
	_, m := f.run(t, flagshipSQL, protocol.KindSAgg, protocol.Params{})
	if m.Observation.TaggedTuples != 0 {
		t.Errorf("S_Agg leaked %d tagged tuples", m.Observation.TaggedTuples)
	}

	// C_Noise: every A_G ciphertext appears with (near) equal frequency in
	// the collection phase by construction.
	_, m = f.run(t, flagshipSQL, protocol.KindCNoise, protocol.Params{})
	if m.Observation.TaggedTuples == 0 {
		t.Fatal("C_Noise produced no tags")
	}
}

func TestMetricsPlausibility(t *testing.T) {
	f := newFixture(t, 40, nil)
	_, mS := f.run(t, flagshipSQL, protocol.KindSAgg, protocol.Params{})
	_, mN := f.run(t, flagshipSQL, protocol.KindRnfNoise, protocol.Params{Nf: 10})
	// Noise inflates collection volume and total load (Fig. 10c/d).
	if mN.Nt <= mS.Nt {
		t.Errorf("noise Nt %d should exceed S_Agg Nt %d", mN.Nt, mS.Nt)
	}
	if mN.LoadBytes <= mS.LoadBytes {
		t.Errorf("noise load %d should exceed S_Agg load %d", mN.LoadBytes, mS.LoadBytes)
	}
}

func TestDistributionDiscoveryCached(t *testing.T) {
	f := newFixture(t, 20, nil)
	f.run(t, flagshipSQL, protocol.KindCNoise, protocol.Params{})
	if len(f.eng.discovery) != 1 {
		t.Fatalf("discovery cache size = %d, want 1", len(f.eng.discovery))
	}
	// Second run with a protocol needing the same discovery reuses it.
	f.run(t, flagshipSQL, protocol.KindEDHist, protocol.Params{})
	if len(f.eng.discovery) != 1 {
		t.Fatalf("discovery cache size = %d after reuse, want 1", len(f.eng.discovery))
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewEngine(Config{Schema: meterSchema()}); err == nil {
		t.Error("missing policy accepted")
	}
	eng, err := NewEngine(Config{Schema: meterSchema(), Policy: &accessctl.Policy{Rules: []accessctl.Rule{{Role: "r"}}}})
	noErr(t, err)
	cred := eng.Authority().Issue("q", []string{"r"}, time.Now().Add(time.Hour))
	q, err := querier.New("q", eng.K1(), cred, eng.Schema())
	noErr(t, err)
	if _, _, err := runQuery(eng, q, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{}); err == nil {
		t.Error("empty fleet accepted")
	}
}

// TestAvailableFractionRange: a fraction outside [0, 1] is refused, not
// silently run at the 10% default; 0 still selects that default.
func TestAvailableFractionRange(t *testing.T) {
	for _, tc := range []struct {
		in, want float64 // want < 0: NewEngine must refuse
	}{{-0.1, -1}, {0, 0.10}, {0.5, 0.5}, {1, 1}, {1.5, -1}} {
		eng, err := NewEngine(Config{Schema: meterSchema(),
			Policy: &accessctl.Policy{Rules: []accessctl.Rule{{Role: "r"}}}, AvailableFraction: tc.in})
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("AvailableFraction %v accepted (runs at %v)", tc.in, eng.cfg.AvailableFraction)
		case tc.want >= 0 && err != nil:
			t.Errorf("AvailableFraction %v: %v", tc.in, err)
		case tc.want >= 0 && eng.cfg.AvailableFraction != tc.want:
			t.Errorf("AvailableFraction %v runs at %v, want %v", tc.in, eng.cfg.AvailableFraction, tc.want)
		}
	}
}

// TestNegativeNfRejected: Execute refuses n_f < 0 before posting, instead
// of running a query whose conformance model multiplies by n_f + 1 = 0.
func TestNegativeNfRejected(t *testing.T) {
	svc := &postingSSI{SSI: ssi.NewSharded(0)}
	f := newFixture(t, 10, func(c *Config) { c.SSI = svc })
	for _, tc := range []struct {
		nf int
		ok bool
	}{{-1, false}, {0, true}, {2, true}} {
		before := svc.posted.Load()
		_, _, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindRnfNoise, protocol.Params{Nf: tc.nf})
		if (err == nil) != tc.ok {
			t.Errorf("Nf %d: err = %v, want ok=%v", tc.nf, err, tc.ok)
		}
		if posted := svc.posted.Load() - before; !tc.ok && posted != 0 {
			t.Errorf("Nf %d: posted %d times, want 0", tc.nf, posted)
		}
	}
}

func TestSAggAlphaParameter(t *testing.T) {
	f := newFixture(t, 40, nil)
	want := f.reference(t, flagshipSQL)
	for _, alpha := range []float64{2, 3.6, 8} {
		got, m, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindSAgg,
			protocol.Params{Alpha: alpha, PartitionTuples: 6})
		if err != nil {
			t.Fatalf("alpha=%g: %v", alpha, err)
		}
		assertSameResult(t, got, want)
		if m.PTDS == 0 {
			t.Errorf("alpha=%g: no participation", alpha)
		}
	}
}

func TestEDHistCollisionFactorParameter(t *testing.T) {
	f := newFixture(t, 40, nil)
	want := f.reference(t, flagshipSQL)
	for _, h := range []float64{1, 2.5, 100} {
		got, _, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindEDHist,
			protocol.Params{CollisionFactor: h})
		if err != nil {
			t.Fatalf("h=%g: %v", h, err)
		}
		assertSameResult(t, got, want)
	}
}

func TestPhaseTimings(t *testing.T) {
	f := newFixture(t, 30, nil)

	// S_Agg: iterative steps then one filtering phase, names in order.
	_, m := f.run(t, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	if len(m.Phases) < 2 {
		t.Fatalf("phases = %v", m.Phases)
	}
	last := m.Phases[len(m.Phases)-1]
	if last.Name != "filtering" {
		t.Errorf("last phase = %s", last.Name)
	}
	totalUnits, dur := 0, time.Duration(0)
	for _, p := range m.Phases {
		if p.Duration <= 0 || p.Units <= 0 {
			t.Errorf("degenerate phase %+v", p)
		}
		totalUnits += p.Units
		dur += p.Duration
	}
	if dur != m.TQ {
		t.Errorf("phase durations sum to %v, T_Q is %v", dur, m.TQ)
	}
	if totalUnits != m.PTDS {
		t.Errorf("phase units sum to %d, P_TDS is %d", totalUnits, m.PTDS)
	}

	// Tagged protocols: aggregate-1, aggregate-2, filtering.
	_, m = f.run(t, flagshipSQL, protocol.KindEDHist, protocol.Params{})
	names := []string{}
	for _, p := range m.Phases {
		names = append(names, p.Name)
	}
	want := []string{"aggregate-1", "aggregate-2", "filtering"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("ED_Hist phases = %v, want %v", names, want)
	}
}
