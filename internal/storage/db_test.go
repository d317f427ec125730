package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func powerSchema() *Schema {
	return MustSchema(
		TableDef{Name: "Power", Columns: []Column{
			{Name: "cid", Kind: KindInt},
			{Name: "cons", Kind: KindFloat},
			{Name: "period", Kind: KindInt},
		}},
		TableDef{Name: "Consumer", Columns: []Column{
			{Name: "cid", Kind: KindInt},
			{Name: "district", Kind: KindString},
			{Name: "accommodation", Kind: KindString},
		}},
	)
}

func TestSchemaLookupCaseInsensitive(t *testing.T) {
	s := powerSchema()
	for _, name := range []string{"power", "POWER", "Power"} {
		// A device resolves its plan's tables by name on every query.
		if n := testing.AllocsPerRun(20, func() {
			if _, ok := s.Table(name); !ok {
				t.Fatalf("Table(%q) not found", name)
			}
		}); n != 0 {
			t.Errorf("Table(%q) allocates %v times", name, n)
		}
	}
	if _, ok := s.Table("nope"); ok {
		t.Error("unknown table must not resolve")
	}
}

func TestSchemaRejectsDuplicates(t *testing.T) {
	s := NewSchema()
	def := TableDef{Name: "T", Columns: []Column{{Name: "a", Kind: KindInt}}}
	if err := s.AddTable(def); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(def); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := s.AddTable(TableDef{Name: "U", Columns: []Column{
		{Name: "a", Kind: KindInt}, {Name: "A", Kind: KindInt}}}); err == nil {
		t.Error("duplicate column must fail")
	}
	if err := s.AddTable(TableDef{Name: ""}); err == nil {
		t.Error("empty table name must fail")
	}
	if err := s.AddTable(TableDef{Name: "V", Columns: []Column{{Name: ""}}}); err == nil {
		t.Error("empty column name must fail")
	}
}

func TestColumnIndex(t *testing.T) {
	s := powerSchema()
	p, _ := s.Table("Power")
	if p.ColumnIndex("CONS") != 1 {
		t.Error("case-insensitive column lookup broken")
	}
	if p.ColumnIndex("nope") != -1 {
		t.Error("missing column must be -1")
	}
}

// rowsOf reads a table through the schema's name lookup.
func rowsOf(t *testing.T, db *LocalDB, table string) []Row {
	t.Helper()
	def, ok := db.Schema().Table(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	return db.TableRows(def)
}

func TestInsertAndScan(t *testing.T) {
	db := NewLocalDB(powerSchema())
	for i := 0; i < 5; i++ {
		if err := db.Insert("Power", Row{Int(int64(i)), Float(float64(i) * 1.5), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	var sum float64
	rows := rowsOf(t, db, "Power")
	for _, r := range rows {
		f, _ := r[1].AsFloat()
		sum += f
	}
	if sum != 15 || len(rows) != 5 {
		t.Errorf("sum = %g, count %d; want 15 and 5", sum, len(rows))
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewLocalDB(powerSchema())
	if err := db.Insert("Power", Row{Int(1)}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := db.Insert("Power", Row{Str("x"), Float(1), Int(1)}); err == nil {
		t.Error("kind mismatch must fail")
	}
	if err := db.Insert("Nope", Row{Int(1)}); err == nil {
		t.Error("unknown table must fail")
	}
	// INT widens to FLOAT.
	if err := db.Insert("Power", Row{Int(1), Int(2), Int(3)}); err != nil {
		t.Errorf("int->float widening rejected: %v", err)
	}
	// NULL always accepted.
	if err := db.Insert("Power", Row{Null(), Null(), Null()}); err != nil {
		t.Errorf("NULLs rejected: %v", err)
	}
}

// TestRowsIsSnapshot: TableRows hands out the stored rows themselves, so the
// contract that makes that safe is checked here — Insert keeps its own copy
// of the caller's row, and a snapshot is closed to later Inserts, including
// through its spare capacity.
func TestRowsIsSnapshot(t *testing.T) {
	db := NewLocalDB(powerSchema())
	mine := Row{Int(1), Float(1), Int(1)}
	if err := db.Insert("Power", mine); err != nil {
		t.Fatal(err)
	}
	mine[0] = Int(999)
	snap := rowsOf(t, db, "Power")
	if v, _ := snap[0][0].AsInt(); v != 1 {
		t.Error("Insert must keep its own copy of the row")
	}
	for i := 2; i < 10; i++ {
		if err := db.Insert("Power", Row{Int(int64(i)), Float(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(snap) != 1 || cap(snap) != 1 {
		t.Errorf("snapshot has len %d cap %d after later inserts, want 1 and 1", len(snap), cap(snap))
	}
	_ = append(snap, Row{Int(-1), Float(-1), Int(-1)})
	now := rowsOf(t, db, "Power")
	if v, _ := now[1][0].AsInt(); len(now) != 9 || v != 2 {
		t.Errorf("appending to a snapshot reached the table: %v", now)
	}
}

// A table name folds the Unicode way on the read path, in a packed
// database's copy too, and an unknown name finds no table.
func TestCountAgreesWithRows(t *testing.T) {
	db := NewLocalDB(MustSchema(TableDef{Name: "Énergie", Columns: []Column{{Name: "kwh", Kind: KindInt}}}))
	err := db.Insert("Énergie", Row{Int(1)})
	unpacked, unpackErr := UnpackDB(db.Schema(), PackDB(db))
	if err = errors.Join(err, unpackErr); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*LocalDB{db, unpacked} {
		if rows := rowsOf(t, d, "énergie"); len(rows) != 1 {
			t.Errorf("%d rows, want 1", len(rows))
		}
	}
	if _, ok := db.Schema().Table("nope"); ok {
		t.Error("unknown table found")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	db := NewLocalDB(powerSchema())
	def, _ := db.Schema().Table("Power")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = db.Insert("Power", Row{Int(int64(w*100 + i)), Float(1), Int(1)})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, r := range db.TableRows(def) {
					_ = r[0]
				}
			}
		}()
	}
	wg.Wait()
	if n := len(rowsOf(t, db, "Power")); n != 800 {
		t.Errorf("count = %d, want 800", n)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema must panic on invalid input")
		}
	}()
	MustSchema(TableDef{Name: ""})
}

func TestValidateAgainstMessages(t *testing.T) {
	def := &TableDef{Name: "T", Columns: []Column{{Name: "a", Kind: KindInt}}}
	err := Row{Str("x")}.ValidateAgainst(def)
	if err == nil {
		t.Fatal("want error")
	}
	want := fmt.Sprintf("storage: column %q wants INT, got TEXT", "a")
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}
