package storage

import (
	"fmt"
	"strings"
)

// Row is one tuple. Positions correspond to a TableDef's columns or, inside
// the executor, to a derived column layout.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key returns a canonical grouping key for the whole row.
func (r Row) Key() string { return string(r.AppendKey(nil)) }

// AppendKey appends Key's bytes to dst and returns the result.
func (r Row) AppendKey(dst []byte) []byte {
	for i, v := range r {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = v.AppendKey(dst)
	}
	return dst
}

// String renders the row for debugging and CLI output.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.AsString()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ValidateAgainst checks that the row matches the table definition arity and
// that each non-NULL value has the declared kind (numeric widening from INT
// to FLOAT is accepted).
func (r Row) ValidateAgainst(def *TableDef) error {
	if len(r) != len(def.Columns) {
		return fmt.Errorf("storage: row has %d values, table %q has %d columns",
			len(r), def.Name, len(def.Columns))
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := def.Columns[i].Kind
		if v.Kind() == want {
			continue
		}
		if want == KindFloat && v.Kind() == KindInt {
			continue
		}
		return fmt.Errorf("storage: column %q wants %s, got %s",
			def.Columns[i].Name, want, v.Kind())
	}
	return nil
}
