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
	insert(t, db, "Consumer", storage.Row{storage.Int(cid), storage.Str(district), storage.Str(acc)})
	for i, c := range cons {
		insert(t, db, "Power", storage.Row{storage.Int(cid), storage.Float(c), storage.Int(int64(i))})
	}
	return db
}

// noErr fails the test at the caller's line on an error.
func noErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func insert(t *testing.T, db *storage.LocalDB, table string, rows ...storage.Row) {
	t.Helper()
	for _, r := range rows {
		noErr(t, db.Insert(table, r))
	}
}

func compile(t *testing.T, q string) *Plan {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	noErr(t, err)
	p, err := Compile(stmt, testSchema())
	noErr(t, err)
	return p
}

// collect is CollectLocal of the compiled query over db.
func collect(t *testing.T, q string, db *storage.LocalDB) (*Plan, []storage.Row) {
	t.Helper()
	p := compile(t, q)
	rows, err := p.CollectLocal(db)
	noErr(t, err)
	return p, rows
}

// standalone is Standalone of the compiled query over dbs.
func standalone(t *testing.T, q string, dbs ...*storage.LocalDB) *Result {
	t.Helper()
	res, err := Standalone(compile(t, q), dbs...)
	noErr(t, err)
	return res
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
	p, rows := collect(t, `SELECT cid, cons FROM Power WHERE cons > 15`, db)
	if len(rows) != 1 || rows[0][1] != storage.Float(20) || p.OutputNames[0] != "cid" || p.OutputNames[1] != "cons" {
		t.Errorf("rows = %v, columns = %v", rows, p.OutputNames)
	}
}

func TestSFWStar(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "flat", 10)
	if p, rows := collect(t, `SELECT * FROM Power`, db); len(rows) != 1 || len(rows[0]) != 3 || len(p.OutputNames) != 3 {
		t.Errorf("rows = %v, columns = %v", rows, p.OutputNames)
	}
}

func TestInternalJoin(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "detached house", 10, 20, 30)
	// A mismatched accommodation filters everything.
	for acc, want := range map[string]int{"detached house": 3, "flat": 0} {
		_, rows := collect(t, `SELECT P.cons FROM Power P, Consumer C `+
			`WHERE C.cid = P.cid AND C.accommodation = '`+acc+`'`, db)
		if len(rows) != want {
			t.Errorf("%s: join returned %d rows, want %d", acc, len(rows), want)
		}
	}
}

func TestCollectionTuplesForAggregate(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "detached house", 10, 20)
	p, rows := collect(t, `SELECT AVG(P.cons) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY C.district`, db)
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
		noErr(t, err)
		var cloned, kept []storage.Row
		err = p.ScanLocal(nil, db, func(row storage.Row) error {
			cloned, kept = append(cloned, row.Clone()), append(kept, row)
			return nil
		})
		noErr(t, err)
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
	err := compile(t, `SELECT * FROM Power`).ScanLocal(nil, db, func(storage.Row) error { calls++; return stop })
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
	res := standalone(t, `SELECT C.district, AVG(P.cons) FROM Power P, Consumer C `+
		`WHERE C.accommodation = 'detached house' AND C.cid = P.cid `+
		`GROUP BY C.district HAVING COUNT(DISTINCT C.cid) >= 2`, dbs...)
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
	res := standalone(t, `SELECT C.district, COUNT(DISTINCT C.cid) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 1`, dbs...)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Lyon" || res.Rows[0][1] != storage.Int(2) {
		t.Fatalf("result = %v, want Lyon with a count distinct of 2", res.Rows)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "Paris", "x", 10),
		oneHousehold(t, 2, "Lyon", "x", 30),
	}
	const q = `SELECT AVG(cons), COUNT(*), SUM(cons), MIN(cons), MAX(cons) FROM Power`
	if !compile(t, q).IsAggregate() {
		t.Fatal("global aggregate misclassified")
	}
	res := standalone(t, q, dbs...)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, want := range []float64{20, 2, 40, 10, 30} {
		if got, _ := res.Rows[0][i].AsFloat(); got != want {
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
	// An even count gives the mean of the middle two.
	for q, want := range map[string]float64{`SELECT MEDIAN(cons) FROM Power`: 5, `SELECT MEDIAN(cons) FROM Power WHERE cons < 9`: 4} {
		if got, _ := standalone(t, q, dbs...).Rows[0][0].AsFloat(); got != want {
			t.Errorf("%s: median = %g, want %g", q, got, want)
		}
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	row := standalone(t, `SELECT COUNT(*), SUM(cons), AVG(cons), MIN(cons), MEDIAN(cons) FROM Power`,
		storage.NewLocalDB(testSchema())).Rows[0]
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
	for _, d := range [][3]float64{{1, 10, 1}, {1, 20, 1}, {1, 5, 2}, {2, 8, 1}} { // cid, cons, period
		insert(t, db, "Power", storage.Row{storage.Int(int64(d[0])), storage.Float(d[1]), storage.Int(int64(d[2]))})
	}
	if res := standalone(t, `SELECT cid, period, SUM(cons) FROM Power GROUP BY cid, period`, db); len(res.Rows) != 3 {
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
		noErr(t, err)
		acc := [2]*Accumulator{a1, a2}[i%2]
		for _, r := range rows {
			noErr(t, acc.AddCollectionRow(r))
		}
	}
	merged := NewAccumulator(p)
	err := errors.Join(merged.MergeEncoded(a1.Encode()), merged.MergeEncoded(a2.Encode()))
	got, ferr := merged.Finalize()
	err = errors.Join(err, ferr)
	if want := standalone(t, p.Stmt.String(), dbs...); err != nil || got.String() != want.String() {
		t.Errorf("merged:\n%s\nstandalone:\n%s", got, want)
	}
}

func TestMergeEncodedRejectsCorruption(t *testing.T) {
	p := compile(t, `SELECT district, COUNT(*) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY district`)
	acc := NewAccumulator(p)
	noErr(t, acc.AddCollectionRow(storage.Row{storage.Str("P"), storage.Int(1)}))
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
	if err := NewAccumulator(p).AddCollectionRow(storage.Row{storage.Str("P")}); err == nil {
		t.Error("short collection row accepted")
	}
}

func TestEncodeGroupSingle(t *testing.T) {
	p := compile(t, `SELECT district, SUM(P.cons) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY district`)
	acc := NewAccumulator(p)
	noErr(t, acc.AddCollectionRow(storage.Row{storage.Str("P"), storage.Float(4)}))
	g := acc.Groups()[0]
	dst := NewAccumulator(p)
	noErr(t, dst.MergeEncoded(AppendGroup(nil, p, g)))
	if dst.NumGroups() != 1 {
		t.Errorf("groups = %d", dst.NumGroups())
	}
}

func TestResultStringRendering(t *testing.T) {
	r := &Result{Columns: []string{"a", "b"}, Rows: []storage.Row{{storage.Int(1), storage.Str("x")}}}
	if want := "a | b\n1 | x\n"; r.String() != want {
		t.Errorf("String() = %q, want %q", r.String(), want)
	}
}
