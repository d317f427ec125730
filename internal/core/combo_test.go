package core

import (
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/storage"
)

// Combination tests: features exercised together, the way a deployment
// would actually stack them.

func TestTargetedNoiseProtocol(t *testing.T) {
	f := newFixture(t, 24, nil)
	targets := []string{"tds-00001", "tds-00004", "tds-00009", "tds-00014"}
	sql := `SELECT C.district, COUNT(*) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY C.district`
	got, m, err := runTargeted(f.eng, f.q, sql, protocol.KindCNoise, protocol.Params{}, targets)
	noErr(t, err)
	var total int64
	for _, row := range got.Rows {
		n, _ := row[1].AsInt()
		total += n
	}
	// Each fixture household holds 1-3 readings; only the 4 targets count.
	if total < 4 || total > 12 {
		t.Errorf("total readings = %d from 4 targets", total)
	}
	if m.Observation.TaggedTuples == 0 {
		t.Error("C_Noise produced no tags")
	}
}

func TestContinuousEDHistWithRefresh(t *testing.T) {
	f := newFixture(t, 18, nil)
	sql := `SELECT C.district, COUNT(*) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY C.district`
	var counts [3]int64
	for w := range counts {
		if w > 0 {
			// New readings shift the distribution; refresh discovery so
			// the histogram reflects it (stale histograms stay correct but
			// drift from equi-depth).
			for i := range f.dbs {
				f.insert(t, i, "Power", storage.Row{storage.Int(int64(i)), storage.Float(55), storage.Int(int64(50 + w))})
			}
			f.eng.RefreshDiscovery()
		}
		res, _, err := runQuery(f.eng, f.q, sql, protocol.KindEDHist, protocol.Params{})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		for _, row := range res.Rows {
			n, _ := row[1].AsInt()
			counts[w] += n
		}
	}
	if counts[1] != counts[0]+18 || counts[2] != counts[1]+18 {
		t.Errorf("window counts = %v, want +18 per window", counts)
	}
}

func TestAuditedTargetedDurationQuery(t *testing.T) {
	// Everything at once: personal queryboxes + duration window + audit
	// replication over an honest fleet.
	f := newFixture(t, 30, func(c *Config) {
		c.AuditReplicas = 3
		c.ConnectionInterval = time.Minute
	})
	targets := make([]string, 0, 12)
	targets = append(targets, f.eng.fleet.ids[:12]...)
	sql := `SELECT COUNT(*) FROM Consumer SIZE DURATION '5m'`
	got, m, err := runTargeted(f.eng, f.q, sql, protocol.KindSAgg, protocol.Params{}, targets)
	noErr(t, err)
	// The 5-minute window admits at most 6 of the 12 targets.
	n, _ := got.Rows[0][0].AsInt()
	if n < 1 || n > 6 {
		t.Errorf("COUNT = %d, want within the window's reach", n)
	}
	if m.AuditDetections != 0 {
		t.Errorf("honest fleet flagged %d times", m.AuditDetections)
	}
}

func TestVarianceThroughEveryProtocol(t *testing.T) {
	f := newFixture(t, 25, nil)
	sql := `SELECT C.district, STDDEV(P.cons), VARIANCE(P.cons) FROM Power P, Consumer C ` +
		`WHERE C.cid = P.cid GROUP BY C.district`
	want := f.reference(t, sql)
	for _, pc := range aggProtocols() {
		got, _, err := runQuery(f.eng, f.q, sql, pc.kind, pc.params)
		if err != nil {
			t.Fatalf("%v: %v", pc.kind, err)
		}
		approxSameResult(t, sql, got, want)
	}
}
