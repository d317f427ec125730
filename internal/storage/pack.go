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
// The engine's fleet stores this blob per device — a few dozen bytes for
// a typical household slice — instead of a live LocalDB with its mutex and
// boxed values, and loads it into a device only while the device works.
// Table order is sorted so equal databases always pack to equal bytes.
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

// Texts is a table of distinct text values, each held once. Load reads a
// text the table holds as the table's string, so a database woken from a
// blob whose texts were added allocates none. Load only reads the table,
// so one table may serve any number of concurrent loads while nothing
// adds to it.
type Texts map[string]string

// With returns t with the text values stored in db added: t itself when
// it holds them all, otherwise an extended copy, so a table that loads may
// be reading is never written.
func (t Texts) With(db *LocalDB) Texts {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := t
	for _, rows := range db.tables {
		for _, r := range rows {
			for _, v := range r {
				if v.kind != KindString {
					continue
				}
				if _, ok := out[v.s]; ok {
					continue
				}
				if len(out) == len(t) { // the first text t lacks
					out = make(Texts, len(t)+1)
					for s := range t {
						out[s] = s
					}
				}
				out[v.s] = v.s
			}
		}
	}
	return out
}

// Load replaces db's contents with a PackDB blob's. Row order within each
// table is preserved exactly, so local query execution over the loaded
// database is bit-identical to execution over the original. The blob was
// produced from an already validated database, so rows are installed
// without re-validation.
//
// Rows decode into the buffers the previous Load left, so reloading a
// database from blobs no larger than one it already held allocates
// nothing: a row read before a Load must not be read after it. Texts are
// read through texts (nil allocates each one). A Load that fails leaves db
// empty.
func (db *LocalDB) Load(blob []byte, texts Texts) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	clear(db.tables)
	vals, rows, err := db.load(blob, texts, db.vals[:0], db.rows[:0])
	db.vals, db.rows = vals, rows
	if err != nil {
		clear(db.tables)
	}
	return err
}

// load decodes blob onto vals (every table's values, in blob order) and
// rows (one slice of vals per row), installing each table as a capped run
// of rows so an Insert after the Load copies before it appends. A row
// whose values outgrow vals keeps the array it was decoded into, and
// later loads decode into the grown one.
func (db *LocalDB) load(blob []byte, texts Texts, vals []Value, rows []Row) ([]Value, []Row, error) {
	nTables, off := binary.Uvarint(blob)
	if off <= 0 || nTables > uint64(len(blob)) {
		return vals, rows, fmt.Errorf("storage: bad packed db header")
	}
	for t := uint64(0); t < nTables; t++ {
		l, n := binary.Uvarint(blob[off:])
		if n <= 0 || uint64(len(blob)-off-n) < l {
			return vals, rows, fmt.Errorf("storage: bad packed table name")
		}
		off += n
		name := blob[off : off+int(l)]
		off += int(l)
		// PackDB folded the name's ASCII; a Unicode name takes Table's fold.
		def, ok := db.schema.tables[string(name)]
		if !ok {
			if def, ok = db.schema.Table(string(name)); !ok {
				return vals, rows, fmt.Errorf("storage: packed table %q is not in the schema", name)
			}
		}
		nRows, n := binary.Uvarint(blob[off:])
		if n <= 0 || nRows > uint64(len(blob)) {
			return vals, rows, fmt.Errorf("storage: bad packed row count for %q", name)
		}
		off += n
		first := len(rows)
		for i := uint64(0); i < nRows; i++ {
			start := len(vals)
			var c int
			var err error
			if vals, c, err = appendRow(vals, blob[off:], texts, false); err != nil {
				return vals, rows, fmt.Errorf("storage: table %q row %d: %w", name, i, err)
			}
			rows = append(rows, Row(vals[start:len(vals):len(vals)]))
			off += c
		}
		db.tables[def.ord] = rows[first:len(rows):len(rows)]
	}
	if off != len(blob) {
		return vals, rows, fmt.Errorf("storage: %d trailing bytes after packed db", len(blob)-off)
	}
	return vals, rows, nil
}
