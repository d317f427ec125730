package sqlexec

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

func TestVarianceAndStddev(t *testing.T) {
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "P", "x", 2, 4),
		oneHousehold(t, 2, "P", "x", 4, 6),
	}
	res := standalone(t, `SELECT VARIANCE(cons), STDDEV(cons), AVG(cons) FROM Power`, dbs...)
	// Population of {2,4,4,6}: mean 4, variance 2, stddev √2.
	v, _ := res.Rows[0][0].AsFloat()
	sd, _ := res.Rows[0][1].AsFloat()
	if math.Abs(v-2) > 1e-9 {
		t.Errorf("VARIANCE = %g, want 2", v)
	}
	if math.Abs(sd-math.Sqrt2) > 1e-9 {
		t.Errorf("STDDEV = %g, want √2", sd)
	}
}

func TestVarianceEmptyAndSingle(t *testing.T) {
	db := storage.NewLocalDB(testSchema())
	const q = `SELECT VARIANCE(cons), STDDEV(cons) FROM Power`
	if res := standalone(t, q, db); !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
		t.Errorf("empty input: %v", res.Rows[0])
	}
	// A single value has zero variance.
	noErr(t, db.Insert("Power", storage.Row{storage.Int(1), storage.Float(5), storage.Int(0)}))
	if v, _ := standalone(t, q, db).Rows[0][0].AsFloat(); v != 0 {
		t.Errorf("single-value variance = %g", v)
	}
}

func TestVarianceParserAliases(t *testing.T) {
	stmt, err := sqlparse.Parse(`SELECT VAR(x), VARIANCE(x), STDDEV(x) FROM T GROUP BY g`)
	noErr(t, err)
	aggs := stmt.Aggregates()
	if aggs[0].Func != sqlparse.AggVar || aggs[1].Func != sqlparse.AggVar ||
		aggs[2].Func != sqlparse.AggStddev {
		t.Fatalf("aggs = %v", aggs)
	}
}

// A VARIANCE plan decodes a partial as VARIANCE states: one of another
// shape fails. (A STDDEV partial is encoded as a VARIANCE one.)
func TestVarianceMergeTypeGuard(t *testing.T) {
	avg := NewAccumulator(compile(t, `SELECT AVG(cons) FROM Power`))
	noErr(t, avg.AddCollectionRow(storage.Row{storage.Float(2)}))
	if err := NewAccumulator(compile(t, `SELECT VARIANCE(cons) FROM Power`)).MergeEncoded(avg.Encode()); err == nil {
		t.Error("VARIANCE merged an AVG partial")
	}
	v := newAggState(spec(sqlparse.AggVar, false, false))
	if err := v.Add(storage.Str("x")); err == nil {
		t.Error("VARIANCE over text accepted")
	}
}

func TestVarianceEncodeRoundTrip(t *testing.T) {
	for _, f := range []sqlparse.AggFunc{sqlparse.AggVar, sqlparse.AggStddev} {
		s := newAggState(spec(f, false, false))
		feed(t, s, storage.Float(1), storage.Float(2), storage.Float(3), storage.Null())
		enc := s.AppendEncode(nil)
		if dec, n, err := decode(spec(f, false, false), enc); err != nil || n != len(enc) || dec.Result() != s.Result() {
			t.Errorf("%s: decoded %v (%d of %d bytes, %v), want %v", f, dec.Result(), n, len(enc), err, s.Result())
		}
	}
}

// Property: split-and-merge variance equals whole-stream variance.
func TestVarianceMergeEquivalence(t *testing.T) {
	sp := spec(sqlparse.AggVar, false, false)
	f := func(xs, ys []int16) bool {
		a, b, whole := newAggState(sp), newAggState(sp), newAggState(sp)
		for _, x := range xs {
			v := storage.Int(int64(x))
			if a.Add(v) != nil || whole.Add(v) != nil {
				return false
			}
		}
		for _, y := range ys {
			v := storage.Int(int64(y))
			if b.Add(v) != nil || whole.Add(v) != nil {
				return false
			}
		}
		if merge(a, b) != nil {
			return false
		}
		ra, rb := a.Result(), whole.Result()
		if ra.IsNull() || rb.IsNull() {
			return ra.IsNull() == rb.IsNull()
		}
		fa, _ := ra.AsFloat()
		fb, _ := rb.AsFloat()
		scale := math.Max(1, math.Abs(fb))
		return math.Abs(fa-fb)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// End-to-end: distributed variance through the accumulator wire format.
func TestVarianceThroughEncodedPartials(t *testing.T) {
	p := compile(t, `SELECT district, STDDEV(P.cons) FROM Power P, Consumer C `+
		`WHERE C.cid = P.cid GROUP BY district`)
	dbs := []*storage.LocalDB{
		oneHousehold(t, 1, "P", "x", 2, 4),
		oneHousehold(t, 2, "P", "x", 4, 6),
	}
	a1, a2 := NewAccumulator(p), NewAccumulator(p)
	for i, db := range dbs {
		rows, err := p.CollectLocal(db)
		noErr(t, err)
		acc := a1
		if i == 1 {
			acc = a2
		}
		for _, r := range rows {
			noErr(t, acc.AddCollectionRow(r))
		}
	}
	merged := NewAccumulator(p)
	noErr(t, merged.MergeEncoded(a1.Encode()))
	noErr(t, merged.MergeEncoded(a2.Encode()))
	res, err := merged.Finalize()
	noErr(t, err)
	if sd, _ := res.Rows[0][1].AsFloat(); math.Abs(sd-math.Sqrt2) > 1e-9 {
		t.Errorf("distributed STDDEV = %g, want √2", sd)
	}
}
