package core

import (
	"slices"
	"testing"

	"github.com/trustedcells/tcq/internal/protocol"
)

// countCorrupt reports how many enrolled devices the threat model marked.
func countCorrupt(e *Engine) int {
	n := 0
	for _, c := range e.fleet.corrupt {
		if c {
			n++
		}
	}
	return n
}

func TestCompromisedFleetWithoutAuditIsWrong(t *testing.T) {
	f := newFixture(t, 40, func(c *Config) { c.CompromisedFraction = 0.5 })
	if countCorrupt(f.eng) == 0 {
		t.Fatal("threat model marked no devices")
	}
	want := f.reference(t, flagshipSQL)
	got, m, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	if m.AuditDetections != 0 {
		t.Errorf("no auditing requested but detections = %d", m.AuditDetections)
	}
	// With half the fleet dropping work, the unaudited result diverges.
	if slices.Equal(sortedRows(got), sortedRows(want)) {
		t.Error("a 50% compromised fleet still produced the exact result — corruption inert")
	}
}

func TestAuditReplicasRestoreCorrectness(t *testing.T) {
	// ~15% compromised, 5 replicas per partition: honest majorities
	// outvote the corrupt devices and the result is exact again. (Two
	// independently compromised devices can still agree by both reducing a
	// single-payload partition to "empty", so the replica count must beat
	// the corruption rate with margin — the classic byzantine bound.)
	f := newFixture(t, 40, func(c *Config) {
		c.CompromisedFraction = 0.15
		c.AuditReplicas = 5
	})
	if countCorrupt(f.eng) == 0 {
		t.Fatal("threat model marked no devices")
	}
	want := f.reference(t, flagshipSQL)
	got, m, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	assertSameResult(t, got, want)
	if m.AuditDetections == 0 {
		t.Error("compromised devices processed partitions but were never detected")
	}
}

func TestAuditAcrossProtocols(t *testing.T) {
	f := newFixture(t, 40, func(c *Config) {
		c.CompromisedFraction = 0.15
		c.AuditReplicas = 5
	})
	want := f.reference(t, flagshipSQL)
	for _, pc := range []struct {
		kind   protocol.Kind
		params protocol.Params
	}{
		{protocol.KindRnfNoise, protocol.Params{Nf: 2, PartitionTuples: 4}},
		{protocol.KindEDHist, protocol.Params{PartitionTuples: 4}},
	} {
		got, _, err := runQuery(f.eng, f.q, flagshipSQL, pc.kind, pc.params)
		if err != nil {
			t.Fatalf("%v: %v", pc.kind, err)
		}
		assertSameResult(t, got, want)
	}
}

func TestAuditBasicSFW(t *testing.T) {
	f := newFixture(t, 30, func(c *Config) {
		c.CompromisedFraction = 0.15
		c.AuditReplicas = 5
	})
	sql := `SELECT C.cid, C.district FROM Consumer C WHERE C.accommodation = 'flat'`
	want := f.reference(t, sql)
	got, _, err := runQuery(f.eng, f.q, sql, protocol.KindBasic, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	assertSameResult(t, got, want)
}

func TestAuditCostsReplicas(t *testing.T) {
	plain := newFixture(t, 40, nil)
	audited := newFixture(t, 40, func(c *Config) { c.AuditReplicas = 3 })
	_, mp, err := runQuery(plain.eng, plain.q, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	_, ma, err := runQuery(audited.eng, audited.q, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	// Auditing an honest fleet finds nothing but pays ~3x the work.
	if ma.AuditDetections != 0 {
		t.Errorf("honest fleet, detections = %d", ma.AuditDetections)
	}
	if ma.PTDS < 2*mp.PTDS {
		t.Errorf("P_TDS with 3 replicas = %d, unreplicated %d — auditing should ~triple work",
			ma.PTDS, mp.PTDS)
	}
}

func TestAuditDigestsAreOpaqueAndBound(t *testing.T) {
	// Digests the SSI sees are 16-byte MACs; equal results in different
	// partitions produce different digests (partition binding).
	f := newFixture(t, 20, func(c *Config) { c.AuditReplicas = 2 })
	_, m, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	if m.AuditDetections != 0 {
		t.Errorf("honest fleet flagged %d times", m.AuditDetections)
	}
}
