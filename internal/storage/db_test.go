package storage

import (
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

func TestSchemaTablesOrder(t *testing.T) {
	s := powerSchema()
	tabs := s.Tables()
	if len(tabs) != 2 || tabs[0].Name != "Power" || tabs[1].Name != "Consumer" {
		t.Errorf("Tables() order wrong: %v", tabs)
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

func TestInsertAndScan(t *testing.T) {
	db := NewLocalDB(powerSchema())
	for i := 0; i < 5; i++ {
		err := db.Insert("Power", Row{Int(int64(i)), Float(float64(i) * 1.5), Int(1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if db.Count("Power") != 5 {
		t.Fatalf("count = %d", db.Count("Power"))
	}
	var sum float64
	if err := db.Scan("Power", func(r Row) bool {
		f, _ := r[1].AsFloat()
		sum += f
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 15 {
		t.Errorf("sum = %g, want 15", sum)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := NewLocalDB(powerSchema())
	for i := 0; i < 10; i++ {
		if err := db.Insert("Power", Row{Int(int64(i)), Float(1), Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := db.Scan("Power", func(Row) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scan visited %d rows, want 3", n)
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

// TestRowsIsSnapshot: Rows hands out the stored rows themselves, so the
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
	snap, err := db.Rows("Power")
	if err != nil {
		t.Fatal(err)
	}
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
	now, _ := db.Rows("Power")
	if v, _ := now[1][0].AsInt(); len(now) != 9 || v != 2 {
		t.Errorf("appending to a snapshot reached the table: %v", now)
	}
	if _, err := db.Rows("nope"); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestConcurrentInsertScan(t *testing.T) {
	db := NewLocalDB(powerSchema())
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
				_ = db.Scan("Power", func(Row) bool { return true })
			}
		}()
	}
	wg.Wait()
	if db.Count("Power") != 800 {
		t.Errorf("count = %d, want 800", db.Count("Power"))
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
