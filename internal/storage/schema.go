package storage

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table in the common schema.
type Column struct {
	Name string
	Kind Kind
}

// TableDef describes one table of the common schema shared by every TDS.
type TableDef struct {
	Name    string
	Columns []Column
	ord     int // position in its schema's definition order
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *TableDef) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Schema is the common relational schema, defined once by the application
// provider (energy distributor, health ministry, ...) and installed in every
// TDS (Section 2.1 of the paper).
type Schema struct {
	tables map[string]*TableDef
	defs   []*TableDef // by ordinal: a LocalDB holds its tables in this order
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*TableDef)}
}

// AddTable registers a table definition. It returns an error when the name
// is already taken or a column is duplicated.
func (s *Schema) AddTable(def TableDef) error {
	key := strings.ToLower(def.Name)
	if key == "" {
		return fmt.Errorf("storage: empty table name")
	}
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("storage: table %q already defined", def.Name)
	}
	seen := make(map[string]bool, len(def.Columns))
	for _, c := range def.Columns {
		ck := strings.ToLower(c.Name)
		if ck == "" {
			return fmt.Errorf("storage: table %q has an unnamed column", def.Name)
		}
		if seen[ck] {
			return fmt.Errorf("storage: table %q duplicates column %q", def.Name, c.Name)
		}
		seen[ck] = true
	}
	cp := def
	cp.Columns = append([]Column(nil), def.Columns...)
	cp.ord = len(s.defs)
	s.tables[key] = &cp
	s.defs = append(s.defs, &cp)
	return nil
}

// Table returns the definition of the named table (case-insensitive). An
// ASCII name is folded without allocating.
func (s *Schema) Table(name string) (*TableDef, bool) {
	t, ok := s.tables[lower(name)]
	if !ok { // a non-ASCII letter folds the Unicode way
		t, ok = s.tables[strings.ToLower(name)]
	}
	return t, ok
}

// MustSchema builds a schema from table definitions, panicking on invalid
// input. Intended for tests, examples and generated workloads where the
// schema is a literal.
func MustSchema(defs ...TableDef) *Schema {
	s := NewSchema()
	for _, d := range defs {
		if err := s.AddTable(d); err != nil {
			panic(err)
		}
	}
	return s
}
