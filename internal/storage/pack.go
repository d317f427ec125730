package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PackDB serializes a database into one compact blob using the
// deterministic row codec:
//
//	blob  := uvarint #tables, then per table (sorted by name):
//	         uvarint len(name) + name, uvarint #rows, rows (AppendRow)
//
// A packed fleet stores this blob per device — a few dozen bytes for a
// typical household slice — instead of the materialized LocalDB with its
// map, mutex and boxed values. Table order is sorted so equal databases
// always pack to equal bytes.
func PackDB(db *LocalDB) []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var defs []*TableDef // of the tables written to, by name
	for ord, rows := range db.tables {
		if rows != nil {
			defs = append(defs, db.schema.defs[ord])
		}
	}
	sort.Slice(defs, func(i, j int) bool { return lower(defs[i].Name) < lower(defs[j].Name) })
	out := binary.AppendUvarint(nil, uint64(len(defs)))
	for _, def := range defs {
		name, rows := lower(def.Name), db.tables[def.ord]
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(len(rows)))
		for _, r := range rows {
			out = AppendRow(out, r)
		}
	}
	return out
}

// UnpackDB reconstructs a database from a PackDB blob. Row order within
// each table is preserved exactly, so local query execution over the
// unpacked database is bit-identical to execution over the original. The
// blob was produced from an already validated database, so rows are
// installed without re-validation or cloning.
func UnpackDB(schema *Schema, blob []byte) (*LocalDB, error) {
	db := NewLocalDB(schema)
	nTables, used := binary.Uvarint(blob)
	if used <= 0 || nTables > uint64(len(blob)) {
		return nil, fmt.Errorf("storage: bad packed db header")
	}
	off := used
	for t := uint64(0); t < nTables; t++ {
		l, n := binary.Uvarint(blob[off:])
		if n <= 0 || uint64(len(blob)-off-n) < l {
			return nil, fmt.Errorf("storage: bad packed table name")
		}
		off += n
		name := string(blob[off : off+int(l)])
		off += int(l)
		def, ok := schema.Table(name)
		if !ok {
			return nil, fmt.Errorf("storage: packed table %q is not in the schema", name)
		}
		nRows, n := binary.Uvarint(blob[off:])
		if n <= 0 || nRows > uint64(len(blob)) {
			return nil, fmt.Errorf("storage: bad packed row count for %q", name)
		}
		off += n
		rows := make([]Row, 0, nRows)
		for i := uint64(0); i < nRows; i++ {
			r, c, err := DecodeRow(blob[off:])
			if err != nil {
				return nil, fmt.Errorf("storage: table %q row %d: %w", name, i, err)
			}
			rows = append(rows, r)
			off += c
		}
		db.tables[def.ord] = rows
	}
	if off != len(blob) {
		return nil, fmt.Errorf("storage: %d trailing bytes after packed db", len(blob)-off)
	}
	return db, nil
}
