package sqlexec

import (
	"fmt"
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// evalRow is one Power row (cid, cons, period) = (7, 12.5, 3) joined with
// Consumer (7, 'Paris', 'flat').
var evalRow = []storage.Row{
	{storage.Int(7), storage.Float(12.5), storage.Int(3)},
	{storage.Int(7), storage.Str("Paris"), storage.Str("flat")},
}

// evalWhere compiles a WHERE expression and evaluates it at evalRow.
func evalWhere(t *testing.T, cond string) (storage.Value, error) {
	t.Helper()
	return compile(t, `SELECT P.cid FROM Power P, Consumer C WHERE `+cond).where(&scope{rows: evalRow})
}

var yes, no, null = storage.Bool(true), storage.Bool(false), storage.Null()

// want checks that every condition evaluates to v.
func want(t *testing.T, v storage.Value, conds ...string) {
	t.Helper()
	for _, cond := range conds {
		if got, err := evalWhere(t, cond); got != v || err != nil {
			t.Errorf("%s = %v (%v), want %v", cond, got, err, v)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	want(t, yes, `P.cid = 7`, `P.cons > 12`, `P.cons >= 12.5`, `P.cons <= 12.5`,
		`C.district = 'Paris'`, `C.district < 'Q'`, `P.cid = 7.0`, // cross-kind numeric
		`C.district <> 7`) // incomparable kinds: inequality true
	want(t, no, `P.cid <> 7`, `P.cons < 12.5`, `C.district = 7`)
}

func TestEvalLogic(t *testing.T) {
	want(t, yes, `P.cid = 7 AND C.district = 'Paris'`, `P.cid = 8 OR C.district = 'Paris'`,
		`NOT P.cid = 8`, `NOT (P.cid = 7 AND P.cons > 100)`)
	want(t, no, `P.cid = 8 AND C.district = 'Paris'`)
}

func TestEvalInBetween(t *testing.T) {
	want(t, yes, `P.cid IN (1, 7, 9)`, `C.district IN ('Lyon', 'Paris')`, `P.cons BETWEEN 12 AND 13`)
	want(t, no, `P.cid NOT IN (1, 7, 9)`, `P.cid IN (1, 2)`, `P.cons NOT BETWEEN 12 AND 13`,
		`P.cons BETWEEN 13 AND 14`)
}

func TestEvalIsNull(t *testing.T) {
	want(t, yes, `NULL IS NULL`, `P.cid IS NOT NULL`)
	want(t, no, `P.cid IS NULL`, `NULL IS NOT NULL`)
}

// NULL through every operator: comparisons, NOT, IN and BETWEEN give NULL
// on a NULL operand; AND and OR collapse it to "not true" and answer
// non-NULL; IS NULL answers.
func TestEvalNull(t *testing.T) {
	want(t, null, `NULL = 1`, `P.cid > NULL`, `NULL <> NULL`, `NOT NULL`, `NOT (P.cid < NULL)`,
		`NULL IN (1, 2)`, `NULL NOT IN (1, 2)`, `NOT (NULL IN (7))`,
		`P.cid BETWEEN NULL AND 9`, `NULL NOT BETWEEN 1 AND 2`, `P.cid BETWEEN 1 AND NULL`)
	want(t, yes, `NULL OR P.cid = 7`, `P.cid IN (NULL, 7)`, `(P.cid = NULL) IS NULL`,
		`NOT (NULL AND P.cid = 7)`, `NOT (NULL OR P.cid = 8)`)
	want(t, no, `NULL AND P.cid = 7`, `NULL OR P.cid = 8`, `P.cid IN (NULL, 8)`,
		`NULL IS NOT NULL`, `(NULL OR NULL) IS NULL`)
}

func TestEvalOrderingErrorOnIncomparable(t *testing.T) {
	for _, cond := range []string{`C.district < 5`, `P.cons BETWEEN 'a' AND 'z'`, `NOT C.district >= P.cid`} {
		if _, err := evalWhere(t, cond); err == nil || !strings.HasPrefix(err.Error(), "storage: cannot compare") {
			t.Errorf("%s: err %v, want a compare error", cond, err)
		}
	}
}

func TestPredicateTrueTreatsNullAsFalse(t *testing.T) {
	db := oneHousehold(t, 7, "Paris", "flat", 1, 2)
	for q, want := range map[string]int{`SELECT cid FROM Power WHERE cons = NULL`: 0, `SELECT cid FROM Power`: 2} {
		if _, rows := collect(t, q, db); len(rows) != want {
			t.Errorf("%s: %d rows, want %d", q, len(rows), want)
		}
	}
}

// A WHERE error is raised at the first row whose evaluation reaches the
// failing operand, with its text; AND stops at a false left side, and an
// aggregate call fails over a row but not over none.
func TestWhereErrors(t *testing.T) {
	const cmp = " rows, then sqlexec: WHERE: storage: cannot compare FLOAT with TEXT"
	db := oneHousehold(t, 7, "Paris", "flat", 10, 20)
	for cond, want := range map[string]string{
		`P.cons < C.district AND C.cid = P.cid`:             "0" + cmp,
		`C.cid = P.cid AND P.cons < C.district`:             "0" + cmp,
		`C.cid = 8 AND P.cons < C.district`:                 "0 rows, then <nil>",
		`1 = 0 AND P.cons < C.district`:                     "0 rows, then <nil>",
		`P.cons > 15 AND P.cons < C.district`:               "0" + cmp,
		`P.cons < 15 OR P.cons BETWEEN 0 AND C.district`:    "1" + cmp,
		`P.cons IS NULL OR P.cons BETWEEN 0 AND C.district`: "0" + cmp,
	} {
		n, p := 0, compile(t, `SELECT P.cid FROM Power P, Consumer C WHERE `+cond)
		err := p.ScanLocal(nil, db, func(storage.Row) error { n++; return nil })
		if got := fmt.Sprint(n, " rows, then ", err); got != want {
			t.Errorf("%s: %s, want %s", cond, got, want)
		}
	}
	p, none := compile(t, `SELECT COUNT(*) FROM Power WHERE COUNT(*) > 1`), func(storage.Row) error { return nil }
	const want = "sqlexec: WHERE: sqlexec: aggregate COUNT(*) outside aggregate context"
	if err := p.ScanLocal(nil, oneHousehold(t, 7, "Paris", "flat", 1), none); fmt.Sprint(err) != want {
		t.Errorf("aggregate in WHERE over a row: %v, want %s", err, want)
	}
	if err := p.ScanLocal(nil, oneHousehold(t, 7, "Paris", "flat"), none); err != nil {
		t.Errorf("aggregate in WHERE over no row: %v", err)
	}
}

// String renders the aggregate call as written.
func (s AggSpec) String() string {
	inner := "*"
	if !s.Star {
		inner = s.Arg.String()
		if s.Distinct {
			inner = "DISTINCT " + inner
		}
	}
	return string(s.Func) + "(" + inner + ")"
}

func TestAggSpecString(t *testing.T) {
	p := compile(t, `SELECT COUNT(*), COUNT(DISTINCT cid), SUM(cons) FROM Power GROUP BY period`)
	want := []string{"COUNT(*)", "COUNT(DISTINCT cid)", "SUM(cons)"}
	for i, spec := range p.Aggs {
		if spec.String() != want[i] {
			t.Errorf("spec %d = %q, want %q", i, spec.String(), want[i])
		}
	}
}

// After grouping only grouping columns and aggregate results are left: the
// post-grouping compiler refuses any other column, and an aggregate call
// compiled for the scan fails when evaluated.
func TestFinalizeErrorsOnColumnOutsideGroup(t *testing.T) {
	p := compile(t, `SELECT district, COUNT(*) FROM Power P, Consumer C GROUP BY district`)
	grouped := &compiler{p: p, aggs: map[*sqlparse.FuncCall]int{}}
	if _, err := grouped.expr(&sqlparse.ColumnRef{Name: "cons"}); !strings.Contains(fmt.Sprint(err), "must appear in GROUP BY") {
		t.Errorf("err = %v", err)
	}
	f, err := (&compiler{p: p}).expr(p.Stmt.Aggregates()[0])
	if _, everr := f(&scope{}); err != nil || everr == nil {
		t.Errorf("aggregate compiled for the scan: %v, %v", err, everr)
	}
}
