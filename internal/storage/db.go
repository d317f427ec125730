package storage

import (
	"fmt"
	"slices"
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
	vals   []Value // what Load decodes values into, reused by the next Load
	rows   []Row   // Load's rows, each a slice of vals
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

// TableRows appends to dst a snapshot of each table without copying it:
// the tuples stored at the one instant of the call, however many Inserts
// follow. Stored rows are immutable — Insert clones on the way in and
// nothing writes to a row afterwards — so the caller must only read them.
// Each def is a table of this database's schema (Schema().Table), found by
// its ordinal with no name folded or looked up.
func (db *LocalDB) TableRows(dst [][]Row, defs ...*TableDef) [][]Row {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, def := range defs {
		var rows []Row
		if def.ord < len(db.tables) {
			rows = slices.Clip(db.tables[def.ord])
		}
		dst = append(dst, rows)
	}
	return dst
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
