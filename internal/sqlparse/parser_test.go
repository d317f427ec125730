package sqlparse

import (
	"strings"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/storage"
)

// The paper's flagship query (Section 2.3).
const paperQuery = `SELECT AVG(Cons) FROM Power P, Consumer C ` +
	`WHERE C.accommodation = 'detached house' AND C.cid = P.cid ` +
	`GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 100 SIZE 50000`

// mustParse is Parse for the literal queries these tests know are valid.
func mustParse(src string) *SelectStmt {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func TestParsePaperQuery(t *testing.T) {
	stmt, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 1 {
		t.Fatalf("select items = %d", len(stmt.Select))
	}
	call, ok := stmt.Select[0].Expr.(*FuncCall)
	if !ok || call.Func != AggAvg {
		t.Fatalf("select[0] = %#v", stmt.Select[0].Expr)
	}
	if len(stmt.From) != 2 || stmt.From[0].Alias != "P" || stmt.From[1].Alias != "C" {
		t.Fatalf("from = %v", stmt.From)
	}
	if stmt.Where == nil {
		t.Fatal("missing WHERE")
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Table != "C" || stmt.GroupBy[0].Name != "district" {
		t.Fatalf("group by = %v", stmt.GroupBy)
	}
	hv, ok := stmt.Having.(*BinaryExpr)
	if !ok || hv.Op != ">" {
		t.Fatalf("having = %#v", stmt.Having)
	}
	cd, ok := hv.Left.(*FuncCall)
	if !ok || cd.Func != AggCount || !cd.Distinct {
		t.Fatalf("having left = %#v", hv.Left)
	}
	if stmt.Size.MaxTuples != 50000 || stmt.Size.Duration != 0 {
		t.Fatalf("size = %+v", stmt.Size)
	}
	if !stmt.IsAggregate() || !stmt.HasGroupBy() {
		t.Fatal("classification broken")
	}
}

func TestParseSimpleSFW(t *testing.T) {
	stmt, err := Parse(`SELECT name, age FROM Patient WHERE age >= 80 SIZE 100 TUPLES`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.IsAggregate() {
		t.Error("SFW query misclassified as aggregate")
	}
	if len(stmt.Select) != 2 {
		t.Errorf("select = %v", stmt.Select)
	}
	if stmt.Size.MaxTuples != 100 {
		t.Errorf("size = %+v", stmt.Size)
	}
}

func TestParseStar(t *testing.T) {
	stmt := mustParse(`SELECT * FROM T`)
	if !stmt.Select[0].Star {
		t.Error("star not detected")
	}
	if stmt.Select[0].Name() != "*" {
		t.Error("star name")
	}
}

func TestParseCountStar(t *testing.T) {
	stmt := mustParse(`SELECT COUNT(*) FROM T GROUP BY d`)
	c := stmt.Select[0].Expr.(*FuncCall)
	if !c.Star || c.Func != AggCount {
		t.Fatalf("count(*) = %#v", c)
	}
	if _, err := Parse(`SELECT SUM(*) FROM T`); err == nil {
		t.Error("SUM(*) must be rejected")
	}
}

func TestParseAliases(t *testing.T) {
	stmt := mustParse(`SELECT AVG(cons) AS mean, MAX(cons) peak FROM Power GROUP BY district`)
	if stmt.Select[0].Alias != "mean" || stmt.Select[1].Alias != "peak" {
		t.Fatalf("aliases = %v / %v", stmt.Select[0].Alias, stmt.Select[1].Alias)
	}
	if stmt.Select[0].Name() != "mean" {
		t.Error("Name() must prefer alias")
	}
}

func TestParseSizeDuration(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T SIZE 10 DURATION '5m'`)
	if stmt.Size.MaxTuples != 10 || stmt.Size.Duration != 5*time.Minute {
		t.Fatalf("size = %+v", stmt.Size)
	}
	stmt = mustParse(`SELECT a FROM T SIZE DURATION '1h30m'`)
	if stmt.Size.MaxTuples != 0 || stmt.Size.Duration != 90*time.Minute {
		t.Fatalf("size = %+v", stmt.Size)
	}
}

func TestParseSizeErrors(t *testing.T) {
	bad := []string{
		`SELECT a FROM T SIZE`,
		`SELECT a FROM T SIZE 0`,
		`SELECT a FROM T SIZE -5`,
		`SELECT a FROM T SIZE DURATION 'xyz'`,
		`SELECT a FROM T SIZE DURATION '-5m'`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestParsePredicates(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T WHERE a IN (1, 2, 3) AND b NOT IN ('x') ` +
		`AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3 ` +
		`AND g IS NULL AND h IS NOT NULL`)
	if stmt.Where == nil {
		t.Fatal("where lost")
	}
	s := stmt.Where.String()
	for _, want := range []string{"IN", "NOT IN", "BETWEEN", "NOT BETWEEN", "IS NULL", "IS NOT NULL"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered WHERE misses %q: %s", want, s)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T WHERE a = 1 OR b = 2 AND c = 3`)
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %#v", stmt.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("AND must bind tighter than OR: %#v", or.Right)
	}
}

func TestParseNotPrecedence(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T WHERE NOT a = 1 AND b = 2`)
	and := stmt.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("top = %#v", stmt.Where)
	}
	if _, ok := and.Left.(*NotExpr); !ok {
		t.Fatalf("NOT must bind tighter than AND: %#v", and.Left)
	}
}

func TestParseLiterals(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T WHERE a = 1 AND b = 2.5 AND c = 'it''s' AND d = TRUE AND e = FALSE AND f = NULL AND g = 1e3`)
	s := stmt.Where.String()
	if !strings.Contains(s, "'it''s'") {
		t.Errorf("string literal escaping: %s", s)
	}
	if !strings.Contains(s, "1000") {
		t.Errorf("1e3 should parse to 1000: %s", s)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	// The sign folds into the literal; -0.0 is 0.
	stmt := mustParse(`SELECT a FROM T WHERE a > -5 AND b < - 2.5 AND c = -0.0`)
	if got, want := stmt.Where.String(), "(((a > -5) AND (b < -2.5)) AND (c = 0))"; got != want {
		t.Errorf("WHERE = %s, want %s", got, want)
	}
	lit := stmt.Where.(*BinaryExpr).Left.(*BinaryExpr).Left.(*BinaryExpr).Right.(*Literal)
	if lit.Value.Kind() != storage.KindInt {
		t.Errorf("-5 kind = %v", lit.Value.Kind())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM T`,
		`SELECT a`,
		`SELECT a FROM`,
		`SELECT a FROM T WHERE`,
		`SELECT a FROM T GROUP`,
		`SELECT a FROM T GROUP BY`,
		`SELECT a FROM T HAVING COUNT(*) > 1`, // HAVING without GROUP BY
		`SELECT a FROM T WHERE a = `,
		`SELECT a FROM T extra garbage ,`,
		`SELECT a FROM T WHERE a IN ()`,
		`SELECT a FROM T WHERE a BETWEEN 1`,
		`SELECT a FROM T WHERE 'unterminated`,
		`SELECT a FROM T WHERE a @ 1`,
		`SELECT a FROM T WHERE a = 1e`,
		`SELECT COUNT(DISTINCT) FROM T GROUP BY a`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestParseComments(t *testing.T) {
	stmt := mustParse("SELECT a -- projection\nFROM T -- table\nWHERE a = 1")
	if stmt.Where == nil || len(stmt.Select) != 1 {
		t.Fatal("comments broke parsing")
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	stmt := mustParse(`select Avg(cons) from power group by district having count(*) > 1 size 10`)
	if !stmt.IsAggregate() || stmt.Size.MaxTuples != 10 {
		t.Fatal("lowercase keywords rejected")
	}
}

func TestAggregatesCollection(t *testing.T) {
	stmt := mustParse(`SELECT AVG(a), SUM(b), COUNT(*) FROM T GROUP BY g HAVING MIN(a) < 3 AND MAX(b) > 4`)
	aggs := stmt.Aggregates()
	if len(aggs) != 5 {
		t.Fatalf("found %d aggregates, want 5", len(aggs))
	}
	order := []AggFunc{AggAvg, AggSum, AggCount, AggMin, AggMax}
	for i, want := range order {
		if aggs[i].Func != want {
			t.Errorf("agg %d = %s, want %s", i, aggs[i].Func, want)
		}
	}
}

func TestAggregatesInsideComplexExprs(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T GROUP BY a ` +
		`HAVING SUM(b) IN (1,2) AND AVG(c) BETWEEN 0 AND 1 AND MIN(d) IS NOT NULL AND NOT (MAX(e) = 1)`)
	if n := len(stmt.Aggregates()); n != 4 {
		t.Fatalf("found %d aggregates, want 4", n)
	}
}

func TestRoundTripThroughString(t *testing.T) {
	queries := []string{
		paperQuery,
		`SELECT * FROM T`,
		`SELECT a, b AS c FROM T U WHERE a <> 2 SIZE 5 DURATION '2m'`,
		`SELECT MEDIAN(x) FROM T GROUP BY g`,
		`SELECT COUNT(DISTINCT x) FROM T GROUP BY g HAVING COUNT(*) >= 10`,
	}
	for _, q := range queries {
		first, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		rendered := first.String()
		second, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if second.String() != rendered {
			t.Errorf("not a fixpoint:\n  %s\n  %s", rendered, second.String())
		}
	}
}

func TestLiteralKinds(t *testing.T) {
	stmt := mustParse(`SELECT a FROM T WHERE a = 9223372036854775807`)
	lit := stmt.Where.(*BinaryExpr).Right.(*Literal)
	if lit.Value.Kind() != storage.KindInt {
		t.Errorf("max int64 kind = %v", lit.Value.Kind())
	}
	// Overflowing integer falls back to float.
	stmt = mustParse(`SELECT a FROM T WHERE a = 99999999999999999999999`)
	lit = stmt.Where.(*BinaryExpr).Right.(*Literal)
	if lit.Value.Kind() != storage.KindFloat {
		t.Errorf("overflow kind = %v", lit.Value.Kind())
	}
}

func TestSizeClauseString(t *testing.T) {
	if (SizeClause{}).String() != "" {
		t.Error("zero size renders empty")
	}
	s := SizeClause{MaxTuples: 5, Duration: time.Minute}
	if got := s.String(); got != "SIZE 5 TUPLES DURATION '1m0s'" {
		t.Errorf("String() = %q", got)
	}
	d := SizeClause{Duration: time.Minute}
	if got := d.String(); got != "SIZE DURATION '1m0s'" {
		t.Errorf("String() = %q", got)
	}
}

// TestParseRejectsRemovedSyntax holds every construct outside the
// dialect to a parse error, so that none is ever read as something else.
func TestParseRejectsRemovedSyntax(t *testing.T) {
	bad := []string{
		`SELECT a FROM T ORDER BY a`,
		`SELECT a FROM T LIMIT 5`,
		`SELECT a FROM T LIMIT`, // not T aliased as LIMIT
		`SELECT a FROM T WHERE a LIKE 'x%'`,
		`SELECT a FROM T WHERE a NOT LIKE 'x%'`,
		`SELECT UPPER(a) FROM T`,
		`SELECT a FROM T WHERE LENGTH(a) > 3`,
		`SELECT a + 1 FROM T`,
		`SELECT a FROM T WHERE a + 1 > 2`,
		`SELECT a FROM T WHERE a * 2 > 2`,
		`SELECT a FROM T WHERE a / 2 > 2`,
		`SELECT a FROM T WHERE a % 2 = 1`,
		`SELECT a FROM T WHERE -a > 2`,
		`SELECT -a FROM T`,
		`SELECT SUM(a) / COUNT(*) FROM T GROUP BY g`,
		`SELECT 1 FROM T`,
		`SELECT a = 1 FROM T`,
		`SELECT SUM(a = 1) FROM T GROUP BY g`,
		`SELECT a FROM T WHERE a = ?`,
	}
	for _, q := range bad {
		t.Run(q, func(t *testing.T) {
			if _, err := Parse(q); err == nil {
				t.Errorf("accepted %q", q)
			}
		})
	}
}

func TestAggregateNameStillUsableAsColumn(t *testing.T) {
	// Bare identifiers that collide with aggregate names stay columns when
	// not followed by '('.
	stmt := mustParse(`SELECT count FROM T WHERE sum > 2`)
	if _, ok := stmt.Select[0].Expr.(*ColumnRef); !ok {
		t.Errorf("select[0] = %#v", stmt.Select[0].Expr)
	}
	if stmt.IsAggregate() {
		t.Error("columns named like aggregates are not aggregates")
	}
}
