package core

import (
	"bytes"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/storage"
)

// TestContinuousWindows is Section 2.3's continuous query: Execute in a
// loop, one complete and independent protocol run per collection window,
// each aggregating the data present at that point — the rows recorded
// between windows reach the devices' slots through Engine.Insert. The
// regions the re-packs leave dead are reclaimed before they outweigh the
// live ones: the blob stays within twice its live bytes, and every slot
// still loads its rows.
func TestContinuousWindows(t *testing.T) {
	f := newFixture(t, 100, nil)
	sql := `SELECT COUNT(*) FROM Power`
	var counts []int64
	for w := 0; w < 3; w++ {
		if w > 0 { // the first window sees the provisioned data only
			// The physical world between windows: every meter records one
			// fresh reading.
			for i := range f.dbs {
				f.insert(t, i, "Power", storage.Row{storage.Int(int64(i)), storage.Float(42), storage.Int(int64(100 + w))})
			}
		}
		res, m, err := runQuery(f.eng, f.q, sql, protocol.KindSAgg, protocol.Params{})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("window %d: %v", w, res.Rows)
		}
		n, _ := res.Rows[0][0].AsInt()
		counts = append(counts, n)
		if m.Nt == 0 {
			t.Errorf("window %d: no collection", w)
		}
	}
	// Each window counts 100 more readings than the previous.
	if counts[1] != counts[0]+100 || counts[2] != counts[1]+100 {
		t.Errorf("window counts = %v, want +100 per window", counts)
	}
	fl, live, dev := &f.eng.fleet, int64(0), f.eng.newShell()
	for i, db := range f.dbs {
		live += fl.end[i] - fl.start[i]
		if err := f.eng.wake(dev, i); err != nil || !bytes.Equal(storage.PackDB(dev.DB), storage.PackDB(db)) {
			t.Fatalf("slot %d loads %x, want %x (%v)", i, storage.PackDB(dev.DB), storage.PackDB(db), err)
		}
	}
	if live != fl.live || int64(len(fl.blob)) > 2*live {
		t.Errorf("blob of %d bytes over %d live (counted %d), want at most twice", len(fl.blob), live, fl.live)
	}
}
