package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlexec"
)

// queryGen builds random but valid queries over the meter schema.
type queryGen struct{ rng *rand.Rand }

func (g *queryGen) pick(options []string) string {
	return options[g.rng.Intn(len(options))]
}

// generate returns a random aggregate query (every protocol supports it).
func (g *queryGen) generate() string {
	aggs := []string{
		"COUNT(*)", "SUM(P.cons)", "AVG(P.cons)", "MIN(P.cons)", "MAX(P.cons)",
		"MEDIAN(P.cons)", "COUNT(DISTINCT P.cid)", "VARIANCE(P.cons)", "STDDEV(P.cons)",
		"SUM(P.cons) / COUNT(*)", "ROUND(AVG(P.cons))",
	}
	n := 1 + g.rng.Intn(3)
	sel := map[string]bool{}
	var selList []string
	for len(selList) < n {
		a := g.pick(aggs)
		if !sel[a] {
			sel[a] = true
			selList = append(selList, a)
		}
	}

	groupBy := g.pick([]string{
		"", "C.district", "C.accommodation", "C.district, C.accommodation", "P.period",
	})
	where := g.pick([]string{
		"C.cid = P.cid",
		"C.cid = P.cid AND P.cons > 40",
		"C.cid = P.cid AND C.accommodation = 'detached house'",
		"C.cid = P.cid AND P.cons BETWEEN 20 AND 80",
		"C.cid = P.cid AND P.period IN (0, 1)",
	})
	having := ""
	if groupBy != "" && g.rng.Intn(2) == 0 {
		having = g.pick([]string{
			" HAVING COUNT(*) >= 1",
			" HAVING COUNT(*) > 2",
			" HAVING AVG(P.cons) > 30",
			" HAVING COUNT(DISTINCT P.cid) >= 2",
		})
	}
	sql := "SELECT "
	if groupBy != "" {
		sql += groupBy + ", "
	}
	for i, s := range selList {
		if i > 0 {
			sql += ", "
		}
		sql += s
	}
	sql += " FROM Power P, Consumer C WHERE " + where
	if groupBy != "" {
		sql += " GROUP BY " + groupBy
	}
	return sql + having
}

// approxSameResult compares results with relative float tolerance: the
// distributed merge order may differ from the reference's, so the last
// bits of floating-point aggregates can legitimately differ.
func approxSameResult(t *testing.T, sql string, got, want *sqlexec.Result) {
	t.Helper()
	canon := func(r *sqlexec.Result) []string {
		rows := make([]string, len(r.Rows))
		for i, row := range r.Rows {
			s := ""
			for j, v := range row {
				if j > 0 {
					s += "|"
				}
				if f, err := v.AsFloat(); err == nil && !v.IsNull() {
					s += strconv.FormatFloat(roundRel(f), 'g', 10, 64)
					continue
				}
				s += v.AsString()
			}
			rows[i] = s
		}
		sort.Strings(rows)
		return rows
	}
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s:\nrow count %d vs %d\ngot:  %v\nwant: %v", sql, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s:\nrow %d: %s\n  want: %s", sql, i, g[i], w[i])
		}
	}
}

// roundRel collapses float noise below ~1e-10 relative.
func roundRel(f float64) float64 {
	if f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return f
	}
	scale := math.Pow(10, 10-math.Ceil(math.Log10(math.Abs(f))))
	return math.Round(f*scale) / scale
}

// TestRandomizedProtocolEquivalence sweeps a space of generated queries:
// every protocol must agree with the plaintext reference on every one.
func TestRandomizedProtocolEquivalence(t *testing.T) {
	f := newFixture(t, 35, nil)
	gen := &queryGen{rng: rand.New(rand.NewSource(271828))}
	protocols := []struct {
		kind   protocol.Kind
		params protocol.Params
	}{
		{protocol.KindSAgg, protocol.Params{}},
		{protocol.KindRnfNoise, protocol.Params{Nf: 3}},
		{protocol.KindCNoise, protocol.Params{}},
		{protocol.KindEDHist, protocol.Params{}},
	}
	queries := 10
	if testing.Short() {
		queries = 3
	}
	for qi := 0; qi < queries; qi++ {
		sql := gen.generate()
		t.Run(fmt.Sprintf("q%02d", qi), func(t *testing.T) {
			want := f.reference(t, sql)
			for _, pc := range protocols {
				got, _, err := runQuery(f.eng, f.q, sql, pc.kind, pc.params)
				if err != nil {
					t.Fatalf("%v over %q: %v", pc.kind, sql, err)
				}
				approxSameResult(t, fmt.Sprintf("%v: %s", pc.kind, sql), got, want)
			}
		})
	}
}
