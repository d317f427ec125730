package core

import (
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
)

func TestRunTargetedPersonalQuerybox(t *testing.T) {
	f := newFixture(t, 20, nil)
	// Ask two specific meters for their readings through their personal
	// queryboxes.
	targets := []string{"tds-00003", "tds-00007"}
	sql := `SELECT cid, cons FROM Power`
	got, m, err := runTargeted(f.eng, f.q, sql, protocol.KindBasic, protocol.Params{}, targets)
	noErr(t, err)
	// Only the targeted households' cids appear.
	for _, row := range got.Rows {
		cid, _ := row[0].AsInt()
		if cid != 3 && cid != 7 {
			t.Errorf("untargeted household %d answered", cid)
		}
	}
	if len(got.Rows) == 0 {
		t.Fatal("targets produced no rows")
	}
	// Exactly the targeted TDSs deposited tuples (readings, or a dummy).
	if m.Nt < 2 || m.Nt > 8 {
		t.Errorf("Nt = %d, want only the two targets' contributions", m.Nt)
	}
}

func TestRunTargetedAggregate(t *testing.T) {
	f := newFixture(t, 20, nil)
	targets := []string{"tds-00001", "tds-00002", "tds-00004"}
	sql := `SELECT COUNT(*), SUM(cons) FROM Power`
	got, _, err := runTargeted(f.eng, f.q, sql, protocol.KindSAgg, protocol.Params{}, targets)
	noErr(t, err)
	if len(got.Rows) != 1 {
		t.Fatalf("rows = %v", got.Rows)
	}
	n, _ := got.Rows[0][0].AsInt()
	// Each fixture household holds 1-3 readings.
	if n < 3 || n > 9 {
		t.Errorf("COUNT over 3 targets = %d", n)
	}
}

func TestRunTargetedValidation(t *testing.T) {
	f := newFixture(t, 4, nil)
	// Empty Targets selects the global querybox: every device answers.
	_, m0, err := runTargeted(f.eng, f.q, `SELECT cid FROM Consumer`,
		protocol.KindBasic, protocol.Params{}, nil)
	noErr(t, err)
	if m0.EligibleDevices != 4 {
		t.Errorf("empty target list reached %d devices, want the whole fleet", m0.EligibleDevices)
	}
	// Unknown targets simply collect nothing: the result is empty, not an
	// error (the SSI cannot know which IDs exist).
	got, m, err := runTargeted(f.eng, f.q, `SELECT cid FROM Consumer`,
		protocol.KindBasic, protocol.Params{}, []string{"tds-99999"})
	noErr(t, err)
	if len(got.Rows) != 0 || m.Nt != 0 {
		t.Errorf("ghost target produced rows=%d Nt=%d", len(got.Rows), m.Nt)
	}
}

func TestTargetedToSemantics(t *testing.T) {
	global := &protocol.QueryPost{}
	if !global.TargetedTo("anyone") {
		t.Error("global post must target everyone")
	}
	personal := &protocol.QueryPost{Targets: []string{"a", "b"}}
	if !personal.TargetedTo("a") || personal.TargetedTo("c") {
		t.Error("personal post targeting broken")
	}
}

func TestDurationWindowBoundsCollection(t *testing.T) {
	// 30 TDSs connecting one per minute; a 10-minute window admits ~11
	// connections (the first at t=0).
	f := newFixture(t, 30, func(c *Config) { c.ConnectionInterval = time.Minute })
	sql := `SELECT cid FROM Consumer SIZE DURATION '10m'`
	_, m, err := runQuery(f.eng, f.q, sql, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if m.Nt < 5 || m.Nt > 12 {
		t.Errorf("Nt = %d, want ~11 connections inside the window", m.Nt)
	}
	// Without the window every TDS answers.
	_, m2, err := runQuery(f.eng, f.q, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if m2.Nt != 30 {
		t.Errorf("unbounded Nt = %d, want 30", m2.Nt)
	}
}

func TestDurationAndTupleBoundTogether(t *testing.T) {
	f := newFixture(t, 30, func(c *Config) { c.ConnectionInterval = time.Minute })
	// Whichever bound hits first stops collection; SIZE 3 wins here.
	_, m, err := runQuery(f.eng, f.q, `SELECT cid FROM Consumer SIZE 3 DURATION '1h'`,
		protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if m.Nt != 3 {
		t.Errorf("Nt = %d, want 3", m.Nt)
	}
}
