package sqlexec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

func spec(f sqlparse.AggFunc, distinct, star bool) AggSpec {
	return AggSpec{Func: f, Distinct: distinct, Star: star,
		Arg: &sqlparse.ColumnRef{Name: "x"}}
}

func feed(t *testing.T, s AggState, vals ...storage.Value) {
	t.Helper()
	for _, v := range vals {
		noErr(t, s.Add(v))
	}
}

// newAggState is the empty state for a spec, as a new group gets it.
func newAggState(sp AggSpec) AggState { return (&stateSlabs{intern: map[string]string{}}).next(sp) }

// merge is ⊕ as the aggregation phase applies it: b's encoding folded
// into a.
func merge(a, b AggState) error {
	_, err := a.decodeMerge(b.AppendEncode(nil))
	return err
}

// decode is a state's wire decoding: its encoding folded into an empty one.
func decode(sp AggSpec, b []byte) (AggState, int, error) {
	st := newAggState(sp)
	n, err := st.decodeMerge(b)
	return st, n, err
}

func TestCountStarVsColumn(t *testing.T) {
	star, col := newAggState(spec(sqlparse.AggCount, false, true)), newAggState(spec(sqlparse.AggCount, false, false))
	vals := []storage.Value{storage.Int(1), storage.Null(), storage.Int(3)}
	feed(t, star, vals...)
	feed(t, col, vals...)
	if n, _ := star.Result().AsInt(); n != 3 {
		t.Errorf("COUNT(*) = %d", n)
	}
	if n, _ := col.Result().AsInt(); n != 2 {
		t.Errorf("COUNT(x) = %d (NULLs must not count)", n)
	}
}

func TestSumIntegerPreservation(t *testing.T) {
	s := newAggState(spec(sqlparse.AggSum, false, false))
	feed(t, s, storage.Int(2), storage.Int(3))
	if s.Result().Kind() != storage.KindInt {
		t.Errorf("all-int SUM kind = %v", s.Result().Kind())
	}
	feed(t, s, storage.Float(0.5))
	if s.Result().Kind() != storage.KindFloat {
		t.Errorf("mixed SUM kind = %v", s.Result().Kind())
	}
	if f, _ := s.Result().AsFloat(); f != 5.5 {
		t.Errorf("SUM = %g", f)
	}
	if err := s.Add(storage.Str("x")); err == nil {
		t.Error("SUM over text accepted")
	}
}

func TestAvgAlgebraicMerge(t *testing.T) {
	a, b := newAggState(spec(sqlparse.AggAvg, false, false)), newAggState(spec(sqlparse.AggAvg, false, false))
	feed(t, a, storage.Int(10)) // avg 10 over 1
	feed(t, b, storage.Int(1), storage.Int(2), storage.Int(3))
	noErr(t, merge(a, b))
	// Correct algebraic merge: (10+6)/4 = 4, not avg-of-avgs (10+2)/2 = 6.
	if f, _ := a.Result().AsFloat(); f != 4 {
		t.Errorf("merged AVG = %g, want 4", f)
	}
}

func TestMinMax(t *testing.T) {
	min, max := newAggState(spec(sqlparse.AggMin, false, false)), newAggState(spec(sqlparse.AggMax, false, false))
	vals := []storage.Value{storage.Float(3), storage.Null(), storage.Float(-1), storage.Float(7)}
	feed(t, min, vals...)
	feed(t, max, vals...)
	if f, _ := min.Result().AsFloat(); f != -1 {
		t.Errorf("MIN = %g", f)
	}
	if f, _ := max.Result().AsFloat(); f != 7 {
		t.Errorf("MAX = %g", f)
	}
	// Strings order too.
	smin := newAggState(spec(sqlparse.AggMin, false, false))
	feed(t, smin, storage.Str("pear"), storage.Str("apple"))
	if smin.Result().AsString() != "apple" {
		t.Errorf("string MIN = %v", smin.Result())
	}
	// Incomparable input errors.
	if err := smin.Add(storage.Int(1)); err == nil {
		t.Error("mixed-kind MIN accepted")
	}
}

func TestMedianOddEvenAndMerge(t *testing.T) {
	m := newAggState(spec(sqlparse.AggMedian, false, false))
	feed(t, m, storage.Int(5), storage.Int(1), storage.Int(9))
	if f, _ := m.Result().AsFloat(); f != 5 {
		t.Errorf("odd MEDIAN = %g", f)
	}
	feed(t, m, storage.Int(7))
	if f, _ := m.Result().AsFloat(); f != 6 {
		t.Errorf("even MEDIAN = %g", f)
	}
	other := newAggState(spec(sqlparse.AggMedian, false, false))
	feed(t, other, storage.Int(100))
	noErr(t, merge(m, other))
	if f, _ := m.Result().AsFloat(); f != 7 {
		t.Errorf("merged MEDIAN = %g", f)
	}
}

func TestDistinctWrapping(t *testing.T) {
	cd := newAggState(spec(sqlparse.AggCount, true, false))
	feed(t, cd, storage.Int(1), storage.Int(1), storage.Int(2), storage.Null(), storage.Int(2))
	if n, _ := cd.Result().AsInt(); n != 2 {
		t.Errorf("COUNT(DISTINCT) = %d", n)
	}
	sd := newAggState(spec(sqlparse.AggSum, true, false))
	feed(t, sd, storage.Int(5), storage.Int(5), storage.Int(3))
	if n, _ := sd.Result().AsInt(); n != 8 {
		t.Errorf("SUM(DISTINCT) = %d", n)
	}
}

func TestDistinctMergeUnions(t *testing.T) {
	a, b := newAggState(spec(sqlparse.AggCount, true, false)), newAggState(spec(sqlparse.AggCount, true, false))
	feed(t, a, storage.Int(1), storage.Int(2))
	feed(t, b, storage.Int(2), storage.Int(3))
	noErr(t, merge(a, b))
	if n, _ := a.Result().AsInt(); n != 3 {
		t.Errorf("union size = %d, want 3", n)
	}
}

// A partial aggregation is decoded with the receiving plan's functions:
// one encoded by another function, or grouped otherwise, must fail. (MIN
// and MAX, like VARIANCE and STDDEV, share one encoding.)
func TestMergeTypeMismatches(t *testing.T) {
	q := func(agg string) string { return `SELECT ` + agg + ` FROM Power GROUP BY period` }
	for _, pair := range [][2]string{
		{q("COUNT(cons)"), q("SUM(cons)")}, {q("SUM(cons)"), q("AVG(cons)")}, {q("AVG(cons)"), q("MEDIAN(cons)")},
		{q("MEDIAN(cons)"), q("MIN(cons)")}, {q("COUNT(DISTINCT cons)"), q("COUNT(cons)")},
		{q("MAX(cons)"), q("VARIANCE(cons)")}, {q("COUNT(*)"), `SELECT COUNT(*) FROM Power GROUP BY cid, period`},
	} {
		src := NewAccumulator(compile(t, pair[0]))
		for _, v := range []float64{10, 2.5} {
			noErr(t, src.AddCollectionRow(storage.Row{storage.Int(3), storage.Float(v)}))
		}
		if err := NewAccumulator(compile(t, pair[1])).MergeEncoded(src.Encode()); err == nil {
			t.Errorf("%s: partial merged into %s", pair[0], pair[1])
		}
	}
}

func TestAggStateEncodeRoundTrip(t *testing.T) {
	specs := []AggSpec{
		spec(sqlparse.AggCount, false, true),
		spec(sqlparse.AggCount, true, false),
		spec(sqlparse.AggSum, false, false),
		spec(sqlparse.AggAvg, false, false),
		spec(sqlparse.AggMin, false, false),
		spec(sqlparse.AggMax, false, false),
		spec(sqlparse.AggMedian, false, false),
	}
	rng := rand.New(rand.NewSource(3))
	for _, sp := range specs {
		s := newAggState(sp)
		for i := 0; i < 50; i++ {
			v := storage.Value(storage.Float(rng.NormFloat64() * 10))
			if rng.Intn(5) == 0 {
				v = storage.Null()
			}
			noErr(t, s.Add(v))
		}
		enc := s.AppendEncode(nil)
		dec, n, err := decode(sp, enc)
		if err != nil {
			t.Fatalf("%s: %v", sp, err)
		}
		if n != len(enc) {
			t.Errorf("%s: consumed %d of %d", sp, n, len(enc))
		}
		a, b := s.Result(), dec.Result()
		if a.IsNull() != b.IsNull() {
			t.Errorf("%s: %v vs %v", sp, a, b)
			continue
		}
		if !a.IsNull() {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			if math.Abs(af-bf) > 1e-9 {
				t.Errorf("%s: %g vs %g", sp, af, bf)
			}
		}
	}
}

func TestAggStateDecodeCorruption(t *testing.T) {
	specs := []AggSpec{
		spec(sqlparse.AggCount, false, true),
		spec(sqlparse.AggCount, true, false),
		spec(sqlparse.AggSum, false, false),
		spec(sqlparse.AggAvg, false, false),
		spec(sqlparse.AggMin, false, false),
		spec(sqlparse.AggMedian, false, false),
		spec(sqlparse.AggVar, false, false),
	}
	for _, sp := range specs {
		s := newAggState(sp)
		feed(t, s, storage.Float(1), storage.Float(2))
		enc := s.AppendEncode(nil)
		for cut := 0; cut < len(enc); cut++ {
			// Truncations must fail or consume <= cut — never panic.
			if st, n, err := decode(sp, enc[:cut]); err == nil && n > cut {
				t.Errorf("%s cut %d: consumed %d, have %d (%v)", sp, cut, n, cut, st)
			}
		}
	}
	// Implausible MEDIAN length header.
	if _, _, err := decode(spec(sqlparse.AggMedian, false, false),
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Error("giant MEDIAN header accepted")
	}
	// Implausible DISTINCT count.
	if _, _, err := decode(spec(sqlparse.AggCount, true, false),
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Error("giant DISTINCT header accepted")
	}
}

// Property: merging two states equals feeding one state everything, for
// every aggregate (on float inputs).
func TestMergeEquivalenceQuick(t *testing.T) {
	for _, sp := range []AggSpec{
		spec(sqlparse.AggCount, false, false),
		spec(sqlparse.AggSum, false, false),
		spec(sqlparse.AggAvg, false, false),
		spec(sqlparse.AggMin, false, false),
		spec(sqlparse.AggMax, false, false),
		spec(sqlparse.AggMedian, false, false),
		spec(sqlparse.AggCount, true, false),
	} {
		sp := sp
		f := func(xs, ys []int16) bool {
			split := newAggState(sp)
			other := newAggState(sp)
			whole := newAggState(sp)
			for _, x := range xs {
				v := storage.Int(int64(x))
				if split.Add(v) != nil || whole.Add(v) != nil {
					return false
				}
			}
			for _, y := range ys {
				v := storage.Int(int64(y))
				if other.Add(v) != nil || whole.Add(v) != nil {
					return false
				}
			}
			if merge(split, other) != nil {
				return false
			}
			a, b := split.Result(), whole.Result()
			if a.IsNull() || b.IsNull() {
				return a.IsNull() == b.IsNull()
			}
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			return math.Abs(af-bf) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", sp, err)
		}
	}
}

func TestNewAggStatePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown aggregate must panic (programmer error)")
		}
	}()
	newAggState(AggSpec{Func: "BOGUS"})
}
