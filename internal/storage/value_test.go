package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "TEXT", KindBool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatal("zero Value must be NULL")
	}
	if v.AsString() != "NULL" {
		t.Errorf("NULL renders as %q", v.AsString())
	}
}

func TestAsIntConversions(t *testing.T) {
	cases := []struct {
		in   Value
		want int64
		ok   bool
	}{
		{Int(42), 42, true},
		{Float(3.9), 3, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{Str("17"), 17, true},
		{Str("x"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, err := c.in.AsInt()
		if (err == nil) != c.ok {
			t.Errorf("AsInt(%v) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("AsInt(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAsFloatConversions(t *testing.T) {
	cases := []struct {
		in   Value
		want float64
		ok   bool
	}{
		{Int(2), 2, true},
		{Float(2.5), 2.5, true},
		{Str("2.5"), 2.5, true},
		{Bool(true), 1, true},
		{Str("NaNope"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, err := c.in.AsFloat()
		if (err == nil) != c.ok {
			t.Errorf("AsFloat(%v) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("AsFloat(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestAsBool(t *testing.T) {
	if Null().AsBool() {
		t.Error("NULL must not be true")
	}
	if !Int(1).AsBool() || Int(0).AsBool() {
		t.Error("int truthiness broken")
	}
	if !Str("x").AsBool() || Str("").AsBool() {
		t.Error("string truthiness broken")
	}
	if !Float(0.5).AsBool() || Float(0).AsBool() {
		t.Error("float truthiness broken")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, err := Compare(Int(2), Float(2.0))
	if err != nil || c != 0 {
		t.Errorf("2 vs 2.0: %d, %v", c, err)
	}
	c, err = Compare(Int(2), Float(2.5))
	if err != nil || c != -1 {
		t.Errorf("2 vs 2.5: %d, %v", c, err)
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if c, _ := Compare(Null(), Int(0)); c != -1 {
		t.Error("NULL must sort before values")
	}
	if c, _ := Compare(Int(0), Null()); c != 1 {
		t.Error("values must sort after NULL")
	}
	if c, _ := Compare(Null(), Null()); c != 0 {
		t.Error("NULL == NULL for ordering")
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(Str("a"), Bool(true)); err == nil {
		t.Error("string vs bool must error")
	}
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Error("string vs int must error")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if c, err := Compare(Str("a"), Str("b")); err != nil || c != -1 {
		t.Errorf("a<b: %d %v", c, err)
	}
	if c, err := Compare(Bool(false), Bool(true)); err != nil || c != -1 {
		t.Errorf("false<true: %d %v", c, err)
	}
	if c, err := Compare(Bool(true), Bool(true)); err != nil || c != 0 {
		t.Errorf("true==true: %d %v", c, err)
	}
	if c, err := Compare(Bool(true), Bool(false)); err != nil || c != 1 {
		t.Errorf("true>false: %d %v", c, err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(3), Float(3)) {
		t.Error("3 == 3.0")
	}
	if Equal(Str("a"), Int(1)) {
		t.Error("incomparable values are not equal")
	}
	if !Equal(Null(), Null()) {
		t.Error("NULL key-equality used for grouping")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(Int(2), Int(3))); !Equal(got, Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(Int(2), Float(0.5))); !Equal(got, Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Add(Str("ab"), Str("cd"))); !Equal(got, Str("abcd")) {
		t.Errorf("concat = %v", got)
	}
	if got := mustV(Sub(Int(2), Int(5))); !Equal(got, Int(-3)) {
		t.Errorf("2-5 = %v", got)
	}
	if got := mustV(Mul(Float(1.5), Int(4))); !Equal(got, Float(6)) {
		t.Errorf("1.5*4 = %v", got)
	}
	if got := mustV(Div(Int(7), Int(2))); !Equal(got, Int(3)) {
		t.Errorf("7/2 = %v", got)
	}
	if got := mustV(Div(Float(7), Int(2))); !Equal(got, Float(3.5)) {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := mustV(Mod(Int(7), Int(3))); !Equal(got, Int(1)) {
		t.Errorf("7%%3 = %v", got)
	}
	if got := mustV(Neg(Int(7))); !Equal(got, Int(-7)) {
		t.Errorf("-7 = %v", got)
	}
	if got := mustV(Neg(Float(1.5))); !Equal(got, Float(-1.5)) {
		t.Errorf("-1.5 = %v", got)
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	ops := []func(a, b Value) (Value, error){Add, Sub, Mul, Div, Mod}
	for i, op := range ops {
		v, err := op(Null(), Int(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op %d: NULL lhs -> %v, %v", i, v, err)
		}
		v, err = op(Int(1), Null())
		if err != nil || !v.IsNull() {
			t.Errorf("op %d: NULL rhs -> %v, %v", i, v, err)
		}
	}
	if v, err := Neg(Null()); err != nil || !v.IsNull() {
		t.Errorf("neg NULL -> %v, %v", v, err)
	}
}

func TestDivModByZero(t *testing.T) {
	if v, err := Div(Int(1), Int(0)); err != nil || !v.IsNull() {
		t.Errorf("1/0 = %v, %v; want NULL", v, err)
	}
	if v, err := Div(Float(1), Float(0)); err != nil || !v.IsNull() {
		t.Errorf("1.0/0.0 = %v, %v; want NULL", v, err)
	}
	if v, err := Mod(Int(1), Int(0)); err != nil || !v.IsNull() {
		t.Errorf("1%%0 = %v, %v; want NULL", v, err)
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("string+int must fail")
	}
	if _, err := Neg(Str("a")); err == nil {
		t.Error("-string must fail")
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	vals := []Value{Null(), Int(0), Int(1), Float(1.5), Str(""), Str("0"),
		Str("a"), Bool(true), Bool(false)}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision: %v and %v -> %q", prev, v, k)
		}
		seen[k] = v
	}
	// Numeric key equality across kinds is intentional.
	if Int(1).Key() != Float(1).Key() {
		t.Error("1 and 1.0 must share a grouping key")
	}
}

// Property: Compare is antisymmetric and reflexive over numeric values.
func TestCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		ab, err1 := Compare(va, vb)
		ba, err2 := Compare(vb, va)
		aa, err3 := Compare(va, va)
		return err1 == nil && err2 == nil && err3 == nil &&
			ab == -ba && aa == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add/Sub round trip for ints (modular arithmetic is fine).
func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		s, err := Add(Int(a), Int(b))
		if err != nil {
			return false
		}
		d, err := Sub(s, Int(b))
		if err != nil {
			return false
		}
		return Equal(d, Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: float keys equal iff values equal (ignoring NaN).
func TestFloatKeyConsistency(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka, kb := Float(a).Key(), Float(b).Key()
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendKeyTable pins the one key encoder to the strings Key returned
// when it was built by concatenation: AppendKey must append exactly those
// bytes, and Key must be AppendKey's bytes as a string.
func TestAppendKeyTable(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Null(), "n"},
		{Int(1), "f1"},
		{Float(1.0), "f1"}, // 1 and 1.0 compare equal and share a key
		{Int(-3), "f-3"},
		{Int(0), "f0"},
		{Float(1.5), "f1.5"},
		{Float(1e20), "f1e+20"},
		{Float(math.Inf(-1)), "f-Inf"},
		{Int(1<<53 + 1), "f9.007199254740992e+15"},
		{Str(""), "s"},
		{Str("n"), "sn"},
		{Str("a\x1fb"), "sa\x1fb"},
		{Bool(true), "bt"},
		{Bool(false), "bf"},
		{Value{kind: 99}, "?"},
	} {
		if got := c.v.Key(); got != c.want {
			t.Errorf("%#v.Key() = %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendKey([]byte("pre"))); got != "pre"+c.want {
			t.Errorf("%#v.AppendKey(pre) = %q, want %q", c.v, got, "pre"+c.want)
		}
	}
	for _, c := range []struct {
		r    Row
		want string
	}{
		{Row{}, ""},
		{Row{Null()}, "n"},
		{Row{Int(1), Str("a\x1fb"), Null()}, "f1\x1fsa\x1fb\x1fn"},
		{Row{Str(""), Str("")}, "s\x1fs"},
		{Row{Float(1), Bool(true)}, "f1\x1fbt"},
	} {
		if got := c.r.Key(); got != c.want {
			t.Errorf("%v.Key() = %q, want %q", c.r, got, c.want)
		}
		if got := string(c.r.AppendKey([]byte("pre"))); got != "pre"+c.want {
			t.Errorf("%v.AppendKey(pre) = %q, want %q", c.r, got, "pre"+c.want)
		}
	}
	// A scratch buffer with room takes a key without allocating.
	buf := make([]byte, 0, 64)
	r := Row{Int(12), Str("Paris"), Float(2.5), Null(), Bool(true)}
	if n := testing.AllocsPerRun(100, func() { buf = r.AppendKey(buf[:0]) }); n != 0 {
		t.Errorf("AppendKey into a scratch buffer allocates %v times", n)
	}
}
