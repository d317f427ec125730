package workload

import (
	"testing"

	"github.com/trustedcells/tcq/internal/storage"
)

// rowsOf reads a table of db by name.
func rowsOf(db *storage.LocalDB, table string) []storage.Row {
	def, _ := db.Schema().Table(table)
	return db.TableRows(def)
}

func TestSmartMeterDeterministic(t *testing.T) {
	w1 := DefaultSmartMeter(5)
	w2 := DefaultSmartMeter(5)
	a := rowsOf(w1.HouseholdDB(3), "Consumer")
	b := rowsOf(w2.HouseholdDB(3), "Consumer")
	if a[0].String() != b[0].String() {
		t.Errorf("same seed, same household differ: %v vs %v", a[0], b[0])
	}
	w3 := DefaultSmartMeter(6)
	c := rowsOf(w3.HouseholdDB(3), "Consumer")
	if a[0].String() == c[0].String() {
		t.Error("different seeds should usually differ")
	}
}

func TestSmartMeterShape(t *testing.T) {
	w := DefaultSmartMeter(1)
	db := w.HouseholdDB(0)
	if n := len(rowsOf(db, "Consumer")); n != 1 {
		t.Errorf("consumers = %d", n)
	}
	rows := rowsOf(db, "Power")
	if len(rows) != w.Readings {
		t.Errorf("readings = %d, want %d", len(rows), w.Readings)
	}
	for _, r := range rows {
		cons, err := r[1].AsFloat()
		if err != nil || cons <= 0 {
			t.Errorf("bad consumption %v", r[1])
		}
	}
}

func TestDistrictDistributionMatchesFleet(t *testing.T) {
	w := DefaultSmartMeter(2)
	const n = 300
	want := w.DistrictDistribution(n)
	got := map[string]int64{}
	for i := 0; i < n; i++ {
		rows := rowsOf(w.HouseholdDB(i), "Consumer")
		got[rows[0][1].AsString()]++
	}
	if len(got) != len(want) {
		t.Fatalf("district sets differ: %d vs %d", len(got), len(want))
	}
	for d, c := range want {
		if got[d] != c {
			t.Errorf("district %s: fleet %d, predicted %d", d, got[d], c)
		}
	}
}

func TestSmartMeterSkewProducesZipfHead(t *testing.T) {
	skewed := &SmartMeter{Districts: 50, Skew: 1.5, Readings: 1, DetachedShare: 0.5, Seed: 3}
	dist := skewed.DistrictDistribution(2000)
	var max, total int64
	for _, c := range dist {
		total += c
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(total) < 0.2 {
		t.Errorf("head district holds %d/%d — not skewed", max, total)
	}
	uniform := &SmartMeter{Districts: 50, Skew: 0, Readings: 1, DetachedShare: 0.5, Seed: 3}
	udist := uniform.DistrictDistribution(2000)
	var umax int64
	for _, c := range udist {
		if c > umax {
			umax = c
		}
	}
	if float64(umax)/2000 > 0.1 {
		t.Errorf("uniform head district holds %d/2000 — too skewed", umax)
	}
}

func TestHealthWorkload(t *testing.T) {
	h := DefaultHealth(9)
	db := h.PatientDB(4)
	rows := rowsOf(db, "Patient")
	if visits := len(rowsOf(db, "Visit")); len(rows) != 1 || visits != h.Visits {
		t.Errorf("counts = %d/%d", len(rows), visits)
	}
	age, err := rows[0][1].AsInt()
	if err != nil || age < 1 || age > 100 {
		t.Errorf("age = %v", rows[0][1])
	}
	if rows[0][2].Kind() != storage.KindString {
		t.Errorf("region kind = %v", rows[0][2].Kind())
	}
}

func TestZipfCounts(t *testing.T) {
	c := ZipfCounts(100, 10000, 1.3, 7)
	var total int64
	for _, n := range c {
		total += n
	}
	if total != 10000 {
		t.Errorf("total = %d", total)
	}
	if len(c) < 10 || len(c) > 100 {
		t.Errorf("distinct values = %d", len(c))
	}
	// Exponent <= 1 falls back to a mild 1.01 rather than panicking.
	c2 := ZipfCounts(10, 100, 0.5, 7)
	if len(c2) == 0 {
		t.Error("fallback exponent produced nothing")
	}
}
