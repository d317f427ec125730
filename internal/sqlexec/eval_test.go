package sqlexec

import (
	"strings"
	"testing"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// evalWhere parses a WHERE expression and evaluates it against one Power
// row (cid, cons, period) = (7, 12.5, 3) joined with Consumer
// (7, 'Paris', 'flat').
func evalWhere(t *testing.T, cond string) storage.Value {
	t.Helper()
	p := compile(t, `SELECT P.cid FROM Power P, Consumer C WHERE `+cond)
	ctx := &evalContext{plan: p, row: storage.Row{
		storage.Int(7), storage.Float(12.5), storage.Int(3),
		storage.Int(7), storage.Str("Paris"), storage.Str("flat"),
	}}
	v, err := ctx.evalExpr(p.Stmt.Where)
	if err != nil {
		t.Fatalf("%s: %v", cond, err)
	}
	return v
}

func wantBool(t *testing.T, cond string, want bool) {
	t.Helper()
	v := evalWhere(t, cond)
	if v.IsNull() || v.AsBool() != want {
		t.Errorf("%s = %v, want %v", cond, v, want)
	}
}

func wantNull(t *testing.T, cond string) {
	t.Helper()
	if v := evalWhere(t, cond); !v.IsNull() {
		t.Errorf("%s = %v, want NULL", cond, v)
	}
}

func TestEvalComparisons(t *testing.T) {
	wantBool(t, `P.cid = 7`, true)
	wantBool(t, `P.cid <> 7`, false)
	wantBool(t, `P.cons > 12`, true)
	wantBool(t, `P.cons >= 12.5`, true)
	wantBool(t, `P.cons < 12.5`, false)
	wantBool(t, `P.cons <= 12.5`, true)
	wantBool(t, `C.district = 'Paris'`, true)
	wantBool(t, `C.district < 'Q'`, true)
	// Cross-kind numeric comparison.
	wantBool(t, `P.cid = 7.0`, true)
	// Incomparable kinds: equality false, inequality true.
	wantBool(t, `C.district = 7`, false)
	wantBool(t, `C.district <> 7`, true)
}

func TestEvalLogic(t *testing.T) {
	wantBool(t, `P.cid = 7 AND C.district = 'Paris'`, true)
	wantBool(t, `P.cid = 8 AND C.district = 'Paris'`, false)
	wantBool(t, `P.cid = 8 OR C.district = 'Paris'`, true)
	wantBool(t, `NOT P.cid = 8`, true)
	wantBool(t, `NOT (P.cid = 7 AND P.cons > 100)`, true)
	// NULL collapse in logic.
	wantBool(t, `NULL AND P.cid = 7`, false)
	wantBool(t, `NULL OR P.cid = 7`, true)
	wantNull(t, `NOT NULL`)
}

func TestEvalArithmetic(t *testing.T) {
	wantBool(t, `P.cid + 1 = 8`, true)
	wantBool(t, `P.cid * 2 - 4 = 10`, true)
	wantBool(t, `P.cons / 2 = 6.25`, true)
	wantBool(t, `P.cid % 4 = 3`, true)
	wantBool(t, `-P.cid = -7`, true)
	// Division by zero yields NULL, which is not true.
	wantNull(t, `P.cid / 0 = 1`)
}

func TestEvalInBetween(t *testing.T) {
	wantBool(t, `P.cid IN (1, 7, 9)`, true)
	wantBool(t, `P.cid NOT IN (1, 7, 9)`, false)
	wantBool(t, `P.cid IN (1, 2)`, false)
	wantBool(t, `C.district IN ('Lyon', 'Paris')`, true)
	wantBool(t, `P.cons BETWEEN 12 AND 13`, true)
	wantBool(t, `P.cons NOT BETWEEN 12 AND 13`, false)
	wantBool(t, `P.cons BETWEEN 13 AND 14`, false)
	// NULL operands propagate.
	wantNull(t, `NULL IN (1, 2)`)
	wantNull(t, `P.cid BETWEEN NULL AND 9`)
}

func TestEvalIsNull(t *testing.T) {
	wantBool(t, `NULL IS NULL`, true)
	wantBool(t, `P.cid IS NULL`, false)
	wantBool(t, `P.cid IS NOT NULL`, true)
	wantBool(t, `NULL IS NOT NULL`, false)
}

func TestEvalLike(t *testing.T) {
	wantBool(t, `C.district LIKE 'Par%'`, true)
	wantBool(t, `C.district LIKE '%ris'`, true)
	wantBool(t, `C.district LIKE '%ari%'`, true)
	wantBool(t, `C.district LIKE 'P_ris'`, true)
	wantBool(t, `C.district LIKE 'Paris'`, true)
	wantBool(t, `C.district LIKE 'paris'`, false) // case-sensitive
	wantBool(t, `C.district LIKE 'P%s'`, true)
	wantBool(t, `C.district LIKE '_'`, false)
	wantBool(t, `C.district LIKE '%'`, true)
	wantBool(t, `C.district NOT LIKE 'Lyon%'`, true)
	wantNull(t, `NULL LIKE '%'`)
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"", "", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a__", true},
		{"abc", "____", false},
		{"abc", "%%%", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%", true},
		{"mississippi", "m%pi", true},
		{"mississippi", "m%x%", false},
		{"aaa", "a%a", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestEvalNullComparisons(t *testing.T) {
	wantNull(t, `NULL = 1`)
	wantNull(t, `P.cid > NULL`)
	wantNull(t, `NULL <> NULL`)
}

func TestEvalOrderingErrorOnIncomparable(t *testing.T) {
	p := compile(t, `SELECT P.cid FROM Power P, Consumer C WHERE C.district < 5`)
	ctx := &evalContext{plan: p, row: storage.Row{
		storage.Int(7), storage.Float(12.5), storage.Int(3),
		storage.Int(7), storage.Str("Paris"), storage.Str("flat"),
	}}
	if _, err := ctx.evalExpr(p.Stmt.Where); err == nil {
		t.Error("string < int must error")
	}
}

func TestPredicateTrueTreatsNullAsFalse(t *testing.T) {
	p := compile(t, `SELECT cid FROM Power WHERE cons / 0 = 1`)
	ctx := &evalContext{plan: p, row: storage.Row{storage.Int(1), storage.Float(2), storage.Int(0)}}
	ok, err := ctx.predicateTrue(p.Stmt.Where)
	if err != nil || ok {
		t.Errorf("NULL predicate = %v, %v; want false", ok, err)
	}
	ok, err = ctx.predicateTrue(nil)
	if err != nil || !ok {
		t.Error("nil predicate must be true")
	}
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

func TestFinalizeErrorsOnColumnOutsideGroup(t *testing.T) {
	// Engine-level validation rejects this at compile; forcing it through
	// the evaluator must error cleanly, not panic.
	p := compile(t, `SELECT district, COUNT(*) FROM Power P, Consumer C GROUP BY district`)
	ctx := &evalContext{plan: p, groupRow: storage.Row{storage.Str("Paris")},
		aggResults: []storage.Value{storage.Int(1)}}
	if _, err := ctx.evalExpr(&sqlparse.ColumnRef{Name: "cons"}); err == nil ||
		!strings.Contains(err.Error(), "not available after grouping") {
		t.Errorf("err = %v", err)
	}
	// Aggregate evaluated without results errors too.
	ctx2 := &evalContext{plan: p, groupRow: storage.Row{storage.Str("Paris")}}
	call := p.Stmt.Aggregates()[0]
	if _, err := ctx2.evalExpr(call); err == nil {
		t.Error("aggregate before aggregation must error")
	}
}
