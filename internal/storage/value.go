// Package storage provides the data substrate shared by every Trusted Data
// Server (TDS): typed values, rows, schemas, an embedded local database and
// a compact binary row codec used on the wire between TDSs and the SSI.
//
// The global database of the paper is the union of many small local
// databases, all conforming to one common schema (Section 2.1). A TDS hosts
// one LocalDB; the querier and the SSI never see plaintext rows.
package storage

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the common schema.
type Kind uint8

// Supported kinds. KindNull is the zero value so that a zero Value is a
// well-formed SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
//
// Values are small (no pointers besides the string header) and are passed
// by value throughout the engine.
type Value struct {
	kind Kind
	b    bool // beside kind: 40 bytes, not 48
	i    int64
	f    float64
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a text value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the value as int64. Floats are truncated; booleans map to
// 0/1. It returns an error for NULL and text that is not a number.
func (v Value) AsInt() (int64, error) {
	switch v.kind {
	case KindInt:
		return v.i, nil
	case KindFloat:
		return int64(v.f), nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindString:
		n, err := strconv.ParseInt(v.s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("storage: %q is not an integer", v.s)
		}
		return n, nil
	default:
		return 0, fmt.Errorf("storage: cannot convert %s to INT", v.kind)
	}
}

// AsFloat returns the value as float64 following SQL numeric coercion.
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case KindInt:
		return float64(v.i), nil
	case KindFloat:
		return v.f, nil
	case KindBool:
		if v.b {
			return 1, nil
		}
		return 0, nil
	case KindString:
		f, err := strconv.ParseFloat(v.s, 64)
		if err != nil {
			return 0, fmt.Errorf("storage: %q is not a number", v.s)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("storage: cannot convert %s to FLOAT", v.kind)
	}
}

// AsString returns the value rendered as text.
func (v Value) AsString() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// AsBool returns the value interpreted as a boolean condition.
// NULL is false (SQL three-valued logic collapses to "not true").
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// numeric reports whether the value is a number.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Compare orders two values. NULLs sort first; numeric kinds compare by
// value regardless of int/float representation; otherwise values must have
// the same kind.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.numeric() && b.numeric() {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("storage: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBool:
		switch {
		case a.b == b.b:
			return 0, nil
		case !a.b:
			return -1, nil
		default:
			return 1, nil
		}
	default:
		return 0, fmt.Errorf("storage: cannot compare kind %s", a.kind)
	}
}

// Equal reports whether two values compare equal. Incomparable kinds are
// unequal rather than an error, matching predicate semantics.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0 && !(a.IsNull() != b.IsNull())
}

// AppendKey appends the value's key to dst and returns the result — the
// one key encoder, a canonical comparable representation suitable as a
// map key for grouping, over the caller's buffer. Distinct values yield
// distinct keys; numeric values that compare equal (1 and 1.0) share a key.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n')
	case KindInt:
		return strconv.AppendFloat(append(dst, 'f'), float64(v.i), 'g', -1, 64)
	case KindFloat:
		return strconv.AppendFloat(append(dst, 'f'), v.f, 'g', -1, 64)
	case KindString:
		return append(append(dst, 's'), v.s...)
	case KindBool:
		if v.b {
			return append(dst, "bt"...)
		}
		return append(dst, "bf"...)
	default:
		return append(dst, '?')
	}
}

// String implements fmt.Stringer.
func (v Value) String() string { return v.AsString() }
