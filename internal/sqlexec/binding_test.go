package sqlexec

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"strings"
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
		stmt, err := sqlparse.Parse(q)
		noErr(t, err)
		_, err = Compile(stmt, testSchema())
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

// TestBindingIsComplete: every SELECT, GROUP BY and aggregate-argument
// column's compiled form, evaluated over rows holding a distinct sentinel
// at every (FROM level, column), reads the column the reference names; and
// Standalone's answers over the corpus are the ones the evaluator gave
// before the dialect was cut to the paper's (the digest was taken over
// this corpus at the commit before that change, and held through the
// interpreter's replacement by the compiled form).
func TestBindingIsComplete(t *testing.T) {
	dbs := corpusDBs(t)
	h := sha256.New()
	for _, q := range corpus {
		p, s := compile(t, q), &scope{}
		var all storage.Row // every sentinel, in the order * expands
		for level, def := range p.defs {
			var row storage.Row
			for _, c := range def.Columns {
				row = append(row, storage.Str(strings.ToLower(cmp.Or(p.refs[level].Alias, p.refs[level].Name)+"|"+def.Name+"|"+c.Name)))
			}
			s.rows, all = append(s.rows, row), append(all, row...)
		}
		reads := func(f evalFn, e sqlparse.Expr) storage.Value {
			ref, ok := e.(*sqlparse.ColumnRef)
			if !ok || ref == nil { // nil: COUNT(*)
				return storage.Null()
			}
			v, err := f(s)
			at := strings.Split(v.AsString(), "|")
			if err != nil || len(at) != 3 || !strings.EqualFold(at[2], ref.Name) ||
				ref.Table != "" && !strings.EqualFold(at[0], ref.Table) && !strings.EqualFold(at[1], ref.Table) {
				t.Errorf("%s: column %s reads %v, %v", q, ref, v, err)
			}
			return v
		}
		out := p.out
		for i, g := range p.Stmt.GroupBy {
			s.group = append(s.group, reads(out[i], g))
		}
		for j, a := range p.Aggs {
			reads(out[len(p.GroupCols)+j], a.Arg)
		}
		for i, it := range p.Stmt.Select {
			switch {
			case p.IsAggregate():
				reads(p.result[i], it.Expr)
			case it.Star:
				for k, want := range all {
					if got, _ := out[k](s); got != want {
						t.Errorf("%s: * column %d reads %v, want %v", q, k, got, want)
					}
				}
				out = out[len(all):]
			default:
				reads(out[0], it.Expr)
				out = out[1:]
			}
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
	noErr(t, err)
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
		noErr(t, err)
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
// in-place scan, its pooled buffers and the accumulator's slabs bought; a
// per-row or per-reference allocation anywhere on these paths fails them.

func TestCollectLocalAllocBudget(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "flat")
	for i := range 300 {
		insert(t, db, "Power", storage.Row{storage.Int(7), storage.Float(float64(i)), storage.Int(int64(i))})
	}
	for q, budget := range map[string]float64{
		// Measured at 3, 3 and 1 (6, 6 and 3 before the compiled form): the
		// output's slab and row index, and the call's own Scan; a scan in a
		// warm Scan allocates nothing.
		`SELECT C.district, AVG(P.cons) FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district`: 4,
		`SELECT * FROM Power P, Consumer C WHERE C.cid = P.cid AND P.cons >= 0`:                           4,
		`SELECT P.cons FROM Power P WHERE P.cons < 0`:                                                     1,
	} {
		p, scan, s := compile(t, q), func(storage.Row) error { return nil }, new(Scan)
		var err, scanErr error
		got := testing.AllocsPerRun(20, func() { _, err = p.CollectLocal(db) })
		warm := testing.AllocsPerRun(20, func() { scanErr = p.ScanLocal(s, db, scan) })
		if got > budget || warm != 0 || err != nil || scanErr != nil {
			t.Errorf("%s: %v allocations over 300 rows, budget %v; a warm ScanLocal %v, want 0 (%v, %v)",
				q, got, budget, warm, err, scanErr)
		}
	}
}

// A row or an encoded partial folded into an existing group allocates
// nothing; a new group costs its key, and a share of the slabs.
func TestAddCollectionRowAllocBudget(t *testing.T) {
	p := compile(t, `SELECT C.district, period, AVG(P.cons), COUNT(*), SUM(P.cons), MAX(P.cons) `+
		`FROM Power P, Consumer C WHERE C.cid = P.cid GROUP BY C.district, period`)
	acc := NewAccumulator(p)
	row := storage.Row{storage.Str("Paris"), storage.Int(3),
		storage.Float(1.5), storage.Int(1), storage.Float(1.5), storage.Float(1.5)}
	add := func() {
		noErr(t, acc.AddCollectionRow(row))
	}
	add()
	got, enc := testing.AllocsPerRun(100, add), acc.Encode()
	merged := testing.AllocsPerRun(100, func() {
		noErr(t, acc.MergeEncoded(enc))
	})
	if got != 0 || merged != 0 || acc.NumGroups() != 1 {
		t.Errorf("into an existing group: AddCollectionRow %v allocations, MergeEncoded %v; %d groups",
			got, merged, acc.NumGroups())
	}
	next := int64(100)
	fresh := testing.AllocsPerRun(1, func() {
		for range 64 {
			row[1], next = storage.Int(next), next+1
			add()
		}
	})
	// Measured at 73: a key each, and the slabs and the map doubling once.
	// Built piece by piece, the 64 groups would cost 512.
	if fresh > 80 {
		t.Errorf("64 new groups: %v allocations, budget 80", fresh)
	}
}
