package sqlexec

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// Column binding moved from evaluation to Compile; what Compile rejects,
// and how, did not.
func TestCompileBindingErrors(t *testing.T) {
	for q, want := range map[string]string{
		`SELECT nope FROM Power`:                                       `sqlexec: SELECT: unknown column "nope"`,
		`SELECT X.cid FROM Power P`:                                    `sqlexec: SELECT: unknown column "X.cid"`,
		`SELECT cid FROM Power, Consumer`:                              `sqlexec: SELECT: ambiguous column "cid"`,
		`SELECT P.cons FROM Power P, Consumer C WHERE cid = 1`:         `sqlexec: WHERE: ambiguous column "cid"`,
		`SELECT AVG(cons) FROM Power WHERE nope = 1 GROUP BY period`:   `sqlexec: WHERE: unknown column "nope"`,
		`SELECT AVG(cons) FROM Power GROUP BY district`:                `sqlexec: GROUP BY: unknown column "district"`,
		`SELECT AVG(nope) FROM Power GROUP BY period`:                  `sqlexec: AVG(nope): unknown column "nope"`,
		`SELECT cid, COUNT(*) FROM Power P, Consumer C GROUP BY P.cid`: `sqlexec: ambiguous column "cid"`,
		`SELECT period FROM Power GROUP BY period HAVING cons > 1`:     `sqlexec: column "cons" must appear in GROUP BY or inside an aggregate`,
		`SELECT period FROM Power GROUP BY period HAVING nope > 1`:     `sqlexec: unknown column "nope"`,
	} {
		_, err := Compile(sqlparse.MustParse(q), testSchema())
		if err == nil || err.Error() != want {
			t.Errorf("%s\n  err  = %v\n  want = %s", q, err, want)
		}
	}
}

// corpus is one query of every expression shape the evaluator knows, over
// joins, grouping, HAVING and the global aggregate.
var corpus = []string{
	`SELECT * FROM Power`,
	`SELECT * FROM Power P, Consumer C WHERE C.cid = P.cid`,
	`SELECT cid, cons FROM Power WHERE cons > 15 AND NOT period = 0`,
	`SELECT P.cons AS c, P.period FROM Power P WHERE P.cons BETWEEN 10 AND 40 OR P.cid IN (9, 11)`,
	`SELECT district, accommodation FROM Consumer WHERE district NOT IN ('Lyon') AND cid IS NOT NULL AND cid > -1`,
	`SELECT C.district, AVG(P.cons) FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district`,
	`SELECT district, accommodation, COUNT(*), MAX(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY district, accommodation`,
	`SELECT C.district, SUM(P.cons), COUNT(*) AS n, MEDIAN(P.cons), MIN(P.cons) ` +
		`FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district ` +
		`HAVING COUNT(DISTINCT C.cid) > 1 AND C.district <> 'Lyon'`,
	`SELECT period, VARIANCE(cons), STDDEV(cons) FROM Power GROUP BY period HAVING period IN (0, 2) OR COUNT(*) > 2`,
	`SELECT COUNT(*), COUNT(cons), AVG(cons), SUM(period) FROM Power WHERE cons NOT BETWEEN 0 AND 5`,
	`SELECT COUNT(*) FROM Power WHERE cons > 1000`,
	`SELECT C.cid, C.district FROM Consumer C WHERE C.accommodation = 'flat'`,
}

func corpusDBs(t *testing.T) []*storage.LocalDB {
	return []*storage.LocalDB{
		oneHousehold(t, 7, "Paris", "flat", 10, 20, 30.5),
		oneHousehold(t, 8, "Paris", "detached house", 5, 45),
		oneHousehold(t, 9, "Lyon", "flat", 12),
		oneHousehold(t, 11, "Nice", "flat"),
	}
}

// TestBindingIsComplete: after Compile every column reference of the
// statement is bound — the evaluator has nothing else to look a column up
// in — and Standalone's answers over the corpus are the ones the evaluator
// gave before the dialect was cut to the paper's (the digest was taken over
// this corpus at the commit before that change).
func TestBindingIsComplete(t *testing.T) {
	dbs := corpusDBs(t)
	h := sha256.New()
	for _, q := range corpus {
		p := compile(t, q)
		var exprs []sqlparse.Expr
		for _, it := range p.Stmt.Select {
			if !it.Star {
				exprs = append(exprs, it.Expr)
			}
		}
		exprs = append(exprs, p.Stmt.Where, p.Stmt.Having)
		for _, g := range p.Stmt.GroupBy {
			exprs = append(exprs, g)
		}
		refs := 0
		for _, e := range exprs {
			sqlparse.Walk(e, func(n sqlparse.Expr) bool {
				if c, ok := n.(*sqlparse.ColumnRef); ok {
					refs++
					if _, ok := p.colPos[c]; !ok {
						t.Errorf("%s: column %s is not bound", q, c)
					}
				}
				return true
			})
		}
		if refs != len(p.colPos) {
			t.Errorf("%s: %d references reachable, %d bound", q, refs, len(p.colPos))
		}
		res, err := Standalone(p, dbs...)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		h.Write([]byte(q + "\n" + res.String()))
	}
	const want = "371e73561bf09a90b027ed3443fadd59cbe7dd687b8857b61d9f45cde3a31977"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("corpus digest = %s, want %s", got, want)
	}
}

// A plan is compiled once and evaluated by many devices at once; the
// bindings are only read after Compile.
func TestBoundPlanConcurrentUse(t *testing.T) {
	p := compile(t, corpus[7])
	dbs := corpusDBs(t)
	want, err := Standalone(p, dbs...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := Standalone(p, dbs...); err != nil || got.String() != want.String() {
					t.Errorf("concurrent Standalone = %v, %v", got, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCollectLocalSeesSnapshot: a device may be inserting sensor readings
// while a query scans it in place. Each scan sees the table as of one
// instant — a prefix of the insertion order, whole rows only.
func TestCollectLocalSeesSnapshot(t *testing.T) {
	const n = 2000
	db := oneHousehold(t, 7, "Paris", "flat")
	p := compile(t, `SELECT P.period, P.cons FROM Power P, Consumer C WHERE C.cid = P.cid`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			row := storage.Row{storage.Int(7), storage.Float(float64(i)), storage.Int(int64(i))}
			if err := db.Insert("Power", row); err != nil {
				t.Error(err)
			}
			row[1] = storage.Float(-1) // the caller's row is its own again
		}
	}()
	for last := 0; last < n; {
		rows, err := p.CollectLocal(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < last {
			t.Fatalf("scan saw %d rows after one saw %d", len(rows), last)
		}
		last = len(rows)
		for i, r := range rows {
			period, _ := r[0].AsInt()
			cons, _ := r[1].AsFloat()
			if period != int64(i) || cons != float64(i) {
				t.Fatalf("row %d of %d = %v", i, len(rows), r)
			}
		}
	}
	<-done
}

// The allocation budgets below guard what compile-time binding, the
// in-place scan and the scratch group key bought; a per-row or per-
// reference allocation anywhere on these paths fails them.

func TestCollectLocalAllocBudget(t *testing.T) {
	cons := make([]float64, 300)
	for i := range cons {
		cons[i] = float64(i)
	}
	db := oneHousehold(t, 7, "Paris", "flat", cons...)
	for q, budget := range map[string]float64{
		// Measured at 6, 6 and 3 (2416, 2716 and 904 before): the output's
		// slab and row index, and a fixed handful for the scan itself.
		`SELECT C.district, AVG(P.cons) FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district`: 8,
		`SELECT * FROM Power P, Consumer C WHERE C.cid = P.cid AND P.cons >= 0`:                           8,
		`SELECT P.cons FROM Power P WHERE P.cons < 0`:                                                     4,
	} {
		p := compile(t, q)
		got := testing.AllocsPerRun(20, func() {
			if _, err := p.CollectLocal(db); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("%s: %v allocations over 300 rows, budget %v", q, got, budget)
		}
	}
}

func TestAddCollectionRowAllocBudget(t *testing.T) {
	p := compile(t, `SELECT C.district, period, AVG(P.cons), COUNT(*), SUM(P.cons), MAX(P.cons) `+
		`FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district, period`)
	acc := NewAccumulator(p)
	row := storage.Row{storage.Str("Paris"), storage.Int(3),
		storage.Float(1.5), storage.Int(1), storage.Float(1.5), storage.Float(1.5)}
	if err := acc.AddCollectionRow(row); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if err := acc.AddCollectionRow(row); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 || acc.NumGroups() != 1 {
		t.Errorf("AddCollectionRow on an existing group: %v allocations, %d groups", got, acc.NumGroups())
	}
}
