package storage

import (
	"fmt"
	"sync"
)

// LocalDB is the embedded database of one TDS. It is a tiny relational
// store: tables of the common schema populated with the tuples acquired by
// the secure device (smart-meter readings, health records, ...).
//
// LocalDB is safe for concurrent use; a TDS may be inserting sensor data
// while a query protocol scans it.
type LocalDB struct {
	mu     sync.RWMutex
	schema *Schema
	tables [][]Row // by schema ordinal; nil for a table never written
}

// NewLocalDB returns an empty database conforming to schema.
func NewLocalDB(schema *Schema) *LocalDB {
	return &LocalDB{schema: schema, tables: make([][]Row, len(schema.defs))}
}

// Schema returns the common schema of the database.
func (db *LocalDB) Schema() *Schema { return db.schema }

// Insert adds a tuple to the named table, validating it against the schema.
func (db *LocalDB) Insert(table string, row Row) error {
	def, ok := db.schema.Table(table)
	if !ok {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	if err := row.ValidateAgainst(def); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for len(db.tables) <= def.ord { // a table added to the schema since
		db.tables = append(db.tables, nil)
	}
	db.tables[def.ord] = append(db.tables[def.ord], row.Clone())
	return nil
}

// Scan calls fn for every tuple of the table. fn must not retain the row.
// Returning false from fn stops the scan early.
func (db *LocalDB) Scan(table string, fn func(Row) bool) error {
	rows, err := db.Rows(table)
	for _, r := range rows {
		if !fn(r) {
			break
		}
	}
	return err
}

// Rows returns a snapshot of the table without copying it: the tuples
// stored at the time of the call, however many Inserts follow. Stored rows
// are immutable — Insert clones on the way in and nothing writes to a row
// afterwards — so the caller must only read them.
func (db *LocalDB) Rows(table string) ([]Row, error) {
	def, ok := db.schema.Table(table)
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %q", table)
	}
	return db.TableRows(def)
}

// TableRows is Rows for a table definition. One of this database's own
// schema is found by its ordinal, with no name folded or looked up; one
// of another schema is looked up by its name.
func (db *LocalDB) TableRows(def *TableDef) ([]Row, error) {
	if def.ord >= len(db.schema.defs) || db.schema.defs[def.ord] != def {
		return db.Rows(def.Name)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if def.ord >= len(db.tables) {
		return nil, nil
	}
	rows := db.tables[def.ord]
	return rows[:len(rows):len(rows)], nil
}

// Count returns the number of tuples in the table (0 for unknown tables).
func (db *LocalDB) Count(table string) int {
	rows, _ := db.Rows(table)
	return len(rows)
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
