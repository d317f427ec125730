package sqlparse

import "testing"

// FuzzParse drives the SQL front end with arbitrary text: it must never
// panic, and any statement it accepts must render to SQL that re-parses to
// the same normal form (TDSs re-parse the decrypted query text, so the
// grammar must be a fixpoint).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT a FROM t",
		"SELECT AVG(Cons) FROM Power P, Consumer C WHERE C.cid = P.cid " +
			"GROUP BY C.district HAVING COUNT(DISTINCT C.cid) > 100 SIZE 50000",
		"SELECT * FROM t WHERE a IN (1,2) AND b BETWEEN 0 AND 9 OR NOT c IS NULL",
		"SELECT a AS b FROM t SIZE 5 DURATION '2m'",
		"select medIan(x) from t group by y having min(x) is not null",
		"SELECT a FROM t WHERE b IN ('it''s', 1e9, -2.5, -0.0, TRUE)",
		// Outside the dialect: each must stay a parse error.
		"SELECT a FROM t ORDER BY a LIMIT 5",
		"SELECT a FROM t LIMIT",
		"SELECT a FROM t WHERE a LIKE 'x%'",
		"SELECT UPPER(a) FROM t",
		"SELECT a FROM t WHERE a + 1 > -a",
		"SELECT a FROM t -- comment\nWHERE a = 1",
		"",
		"SELECT",
		"@#$%",
		"SELECT a FROM t WHERE 'unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := stmt.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendered form %q does not parse: %v", src, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("render not a fixpoint:\n  %s\n  %s", rendered, again.String())
		}
	})
}
