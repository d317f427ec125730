package sqlexec

import (
	"errors"
	"math"
	"testing"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

func testSchema() *storage.Schema {
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

// oneHousehold builds the LocalDB of one TDS: one consumer + readings.
func oneHousehold(t *testing.T, cid int64, district, acc string, cons ...float64) *storage.LocalDB {
	t.Helper()
	db := storage.NewLocalDB(testSchema())
	if err := db.Insert("Consumer", storage.Row{
		storage.Int(cid), storage.Str(district), storage.Str(acc)}); err != nil {
		t.Fatal(err)
	}
	for i, c := range cons {
		if err := db.Insert("Power", storage.Row{
			storage.Int(cid), storage.Float(c), storage.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func compile(t *testing.T, q string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(stmt, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`SELECT a FROM Nope`,
		`SELECT nope FROM Power`,
		`SELECT cid FROM Power, Consumer`,                          // ambiguous
		`SELECT P.cid FROM Power P, Power P`,                       // duplicate alias
		`SELECT cons FROM Power GROUP BY district`,                 // unknown col in group ctx
		`SELECT cons FROM Power GROUP BY period`,                   // non-grouped bare column
		`SELECT * FROM Power GROUP BY period`,                      // * in aggregate query
		`SELECT AVG(nope) FROM Power GROUP BY period`,              // unknown agg arg
		`SELECT period FROM Power GROUP BY period HAVING cons > 1`, // non-grouped col in HAVING
		`SELECT AVG(cons) FROM Power WHERE nope = 1 GROUP BY period`,
	}
	for _, q := range bad {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			continue // parse-level errors exercised elsewhere
		}
		if _, err := Compile(stmt, testSchema()); err == nil {
			t.Errorf("compiled %q", q)
		}
	}
}

func TestSFWProjection(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "detached house", 10, 20)
	p := compile(t, `SELECT cid, cons FROM Power WHERE cons > 15`)
	rows, err := p.CollectLocal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if got, _ := rows[0][1].AsFloat(); got != 20 {
		t.Errorf("cons = %g", got)
	}
	if p.OutputNames[0] != "cid" || p.OutputNames[1] != "cons" {
		t.Errorf("columns = %v", p.OutputNames)
	}
}

func TestSFWStar(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "flat", 10)
	p := compile(t, `SELECT * FROM Power`)
	rows, err := p.CollectLocal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if len(p.OutputNames) != 3 {
		t.Errorf("columns = %v", p.OutputNames)
	}
}

func TestInternalJoin(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "detached house", 10, 20, 30)
	p := compile(t, `SELECT P.cons FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid AND C.accommodation = 'detached house'`)
	rows, err := p.CollectLocal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("join returned %d rows, want 3", len(rows))
	}
	// A mismatched accommodation filters everything.
	p = compile(t, `SELECT P.cons FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid AND C.accommodation = 'flat'`)
	rows, err = p.CollectLocal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCollectionTuplesForAggregate(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "detached house", 10, 20)
	p := compile(t, `SELECT AVG(P.cons) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY C.district`)
	rows, err := p.CollectLocal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("collection tuples = %v", rows)
	}
	for _, r := range rows {
		if len(r) != p.CollectionWidth() || r[0].AsString() != "Paris" {
			t.Errorf("tuple = %v", r)
		}
	}
}

// TestScanLocalStreamsCollectLocal: CollectLocal is the streamed rows,
// cloned, on every fixture query above; and the streamed row is the scan's
// one buffer — a callback that keeps it without cloning finds every kept
// row overwritten by the last.
func TestScanLocalStreamsCollectLocal(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "detached house", 10, 20, 30)
	for _, q := range []string{
		`SELECT cid, cons FROM Power WHERE cons > 15`,
		`SELECT * FROM Power`,
		`SELECT * FROM Power P, Consumer C WHERE C.cid = P.cid`,
		`SELECT P.cons FROM Power P, Consumer C WHERE C.cid = P.cid AND C.accommodation = 'flat'`,
		`SELECT AVG(P.cons) FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district`,
		`SELECT period, COUNT(*), MAX(cons) FROM Power GROUP BY period`,
		`SELECT COUNT(*) FROM Power WHERE cons > 100`,
	} {
		p := compile(t, q)
		want, err := p.CollectLocal(db)
		if err != nil {
			t.Fatal(err)
		}
		var cloned, kept []storage.Row
		err = p.ScanLocal(db, func(row storage.Row) error {
			cloned, kept = append(cloned, row.Clone()), append(kept, row)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(cloned) != len(want) {
			t.Fatalf("%s: %d streamed rows, CollectLocal has %d", q, len(cloned), len(want))
		}
		for i := range want {
			if want[i].Key() != cloned[i].Key() {
				t.Errorf("%s: row %d streamed as %v, collected as %v", q, i, cloned[i], want[i])
			}
			if last := cloned[len(cloned)-1]; kept[i].Key() != last.Key() {
				t.Errorf("%s: uncloned row %d reads %v, want the last row %v", q, i, kept[i], last)
			}
			// A collected row owns its values: appending to one cannot reach the next.
			if i+1 < len(want) {
				next := want[i+1].Key()
				_ = append(want[i], storage.Int(-1))
				if want[i+1].Key() != next {
					t.Errorf("%s: appending to row %d overwrote row %d", q, i, i+1)
				}
			}
		}
	}
	// An error from the callback ends the scan and comes back as it is.
	stop := errors.New("stop")
	calls := 0
	err := compile(t, `SELECT * FROM Power`).ScanLocal(db, func(storage.Row) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Errorf("scan returned %v after %d calls, want the callback's error after one", err, calls)
	}
}

func TestStandaloneFlagshipQuery(t *testing.T) {
	// Three households in Paris (detached), two in Lyon (flat -> filtered),
	// two in Lyon (detached).
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "Paris", "detached house", 10, 20),
		oneHousehold(t, 2, "Paris", "detached house", 30),
		oneHousehold(t, 3, "Paris", "detached house", 40),
		oneHousehold(t, 4, "Lyon", "flat", 100),
		oneHousehold(t, 5, "Lyon", "flat", 200),
		oneHousehold(t, 6, "Lyon", "detached house", 50),
		oneHousehold(t, 7, "Lyon", "detached house", 70),
	}
	q := `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.accommodation = 'detached house' AND C.cid = P.cid ` +
		`GROUP BY C.district HAVING COUNT(DISTINCT C.cid) >= 2`
	p := compile(t, q)
	res, err := Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("result = %v", res)
	}
	want := map[string]float64{"Lyon": 60, "Paris": 25}
	for _, row := range res.Rows {
		avg, _ := row[1].AsFloat()
		if w := want[row[0].AsString()]; math.Abs(avg-w) > 1e-9 {
			t.Errorf("%s: avg = %g, want %g", row[0], avg, w)
		}
	}
}

func TestStandaloneHavingFilters(t *testing.T) {
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "Paris", "detached house", 10),
		oneHousehold(t, 2, "Lyon", "detached house", 50),
		oneHousehold(t, 3, "Lyon", "detached house", 70),
	}
	p := compile(t, `SELECT C.district, COUNT(DISTINCT C.cid) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 1`)
	res, err := Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Lyon" {
		t.Fatalf("result = %v", res.Rows)
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("count distinct = %d", n)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "Paris", "x", 10),
		oneHousehold(t, 2, "Lyon", "x", 30),
	}
	p := compile(t, `SELECT AVG(cons), COUNT(*), SUM(cons), MIN(cons), MAX(cons) FROM Power`)
	if !p.IsAggregate() {
		t.Fatal("global aggregate misclassified")
	}
	res, err := Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	checks := []float64{20, 2, 40, 10, 30}
	for i, want := range checks {
		got, _ := row[i].AsFloat()
		if got != want {
			t.Errorf("col %d (%s) = %g, want %g", i, res.Columns[i], got, want)
		}
	}
}

func TestMedianHolistic(t *testing.T) {
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "P", "x", 1, 9),
		oneHousehold(t, 2, "P", "x", 5),
		oneHousehold(t, 3, "P", "x", 3, 7),
	}
	p := compile(t, `SELECT MEDIAN(cons) FROM Power`)
	res, err := Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	// Even count: mean of the middle two.
	p = compile(t, `SELECT MEDIAN(cons) FROM Power WHERE cons < 9`)
	res, err = Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 4 {
		t.Errorf("median = %g, want 4", got)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	db := storage.NewLocalDB(testSchema())
	p := compile(t, `SELECT COUNT(*), SUM(cons), AVG(cons), MIN(cons), MEDIAN(cons) FROM Power`)
	res, err := Standalone(p, db)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if n, _ := row[0].AsInt(); n != 0 {
		t.Errorf("count = %d", n)
	}
	for i := 1; i < len(row); i++ {
		if !row[i].IsNull() {
			t.Errorf("col %d = %v, want NULL", i, row[i])
		}
	}
}

func TestGroupByMultipleColumns(t *testing.T) {
	db := storage.NewLocalDB(testSchema())
	data := []struct {
		cid    int64
		cons   float64
		period int64
	}{{1, 10, 1}, {1, 20, 1}, {1, 5, 2}, {2, 8, 1}}
	for _, d := range data {
		if err := db.Insert("Power", storage.Row{
			storage.Int(d.cid), storage.Float(d.cons), storage.Int(d.period)}); err != nil {
			t.Fatal(err)
		}
	}
	p := compile(t, `SELECT cid, period, SUM(cons) FROM Power GROUP BY cid, period`)
	res, err := Standalone(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
}

func TestAccumulatorEncodeRoundTrip(t *testing.T) {
	p := compile(t, `SELECT district, AVG(P.cons), COUNT(*), COUNT(DISTINCT P.cid), MEDIAN(P.cons) `+
		`FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY district`)
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "P", "x", 10, 20),
		oneHousehold(t, 2, "P", "x", 30),
		oneHousehold(t, 3, "Q", "x", 5),
	}
	// Partition the fleet in two, accumulate separately, ship encoded
	// partials, merge — must equal the standalone run.
	a1, a2 := NewAccumulator(p), NewAccumulator(p)
	for i, db := range dbs {
		rows, err := p.CollectLocal(db)
		if err != nil {
			t.Fatal(err)
		}
		acc := a1
		if i%2 == 1 {
			acc = a2
		}
		for _, r := range rows {
			if err := acc.AddCollectionRow(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged := NewAccumulator(p)
	if err := merged.MergeEncoded(a1.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := merged.MergeEncoded(a2.Encode()); err != nil {
		t.Fatal(err)
	}
	got, err := merged.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("merged:\n%s\nstandalone:\n%s", got, want)
	}
}

func TestMergeEncodedRejectsCorruption(t *testing.T) {
	p := compile(t, `SELECT district, COUNT(*) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY district`)
	acc := NewAccumulator(p)
	if err := acc.AddCollectionRow(storage.Row{storage.Str("P"), storage.Int(1)}); err != nil {
		t.Fatal(err)
	}
	enc := acc.Encode()
	dst := NewAccumulator(p)
	if err := dst.MergeEncoded(append(enc, 0x7)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if err := dst.MergeEncoded(enc[:len(enc)-1]); err == nil {
		t.Error("truncation accepted")
	}
	if err := dst.MergeEncoded([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Error("implausible header accepted")
	}
}

func TestAccumulatorArityCheck(t *testing.T) {
	p := compile(t, `SELECT district, COUNT(*) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY district`)
	acc := NewAccumulator(p)
	if err := acc.AddCollectionRow(storage.Row{storage.Str("P")}); err == nil {
		t.Error("short collection row accepted")
	}
}

func TestEncodeGroupSingle(t *testing.T) {
	p := compile(t, `SELECT district, SUM(P.cons) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY district`)
	acc := NewAccumulator(p)
	if err := acc.AddCollectionRow(storage.Row{storage.Str("P"), storage.Float(4)}); err != nil {
		t.Fatal(err)
	}
	g := acc.Groups()[0]
	dst := NewAccumulator(p)
	if err := dst.MergeEncoded(EncodeGroup(p, g)); err != nil {
		t.Fatal(err)
	}
	if dst.NumGroups() != 1 {
		t.Errorf("groups = %d", dst.NumGroups())
	}
}

func TestResultStringRendering(t *testing.T) {
	r := &Result{Columns: []string{"a", "b"}, Rows: []storage.Row{{storage.Int(1), storage.Str("x")}}}
	want := "a | b\n1 | x\n"
	if r.String() != want {
		t.Errorf("String() = %q", r.String())
	}
}
