package core

import (
	"sort"
	"testing"

	"github.com/trustedcells/tcq/internal/faultplan"
	"github.com/trustedcells/tcq/internal/protocol"
)

// TestAuditDetectRevokeRotate closes the compromised-TDS loop: audited
// runs flag the tampering devices, the fleet revokes repeat offenders via
// broadcast and rotates keys, and subsequent *unaudited* runs are exact
// because the compromised devices can no longer decrypt anything.
func TestAuditDetectRevokeRotate(t *testing.T) {
	f := newFixture(t, 40, func(c *Config) {
		c.CompromisedFraction = 0.15
		c.AuditReplicas = 5
	})
	corruptIDs := map[string]bool{}
	for slot, id := range f.eng.fleet.ids {
		if f.eng.fleet.corrupt[slot] {
			corruptIDs[id] = true
		}
	}
	if len(corruptIDs) == 0 {
		t.Fatal("no compromised devices in fixture")
	}

	// Phase 1: audited queries accumulate suspects. Repeat a few runs so
	// every compromised device gets drawn into some partition.
	offences := map[string]int{}
	for i := 0; i < 6; i++ {
		_, m, err := runQuery(f.eng, f.q, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
		noErr(t, err)
		for _, id := range m.Suspects {
			offences[id]++
		}
	}
	if len(offences) == 0 {
		t.Fatal("no suspects accumulated")
	}
	// Repeat offenders (flagged at least twice) must be overwhelmingly the
	// actually compromised devices — honest devices produce the majority
	// result and are not flagged.
	var repeat []string
	for id, n := range offences {
		if n >= 2 {
			repeat = append(repeat, id)
		}
	}
	sort.Strings(repeat)
	if len(repeat) == 0 {
		t.Fatal("no repeat offenders")
	}
	for _, id := range repeat {
		if !corruptIDs[id] {
			t.Errorf("honest device %s flagged repeatedly", id)
		}
	}

	// Phase 2: revoke the offenders and rotate keys via broadcast.
	noErr(t, f.eng.RevokeAndRotate(repeat...))
	if got := len(f.eng.RevokedDevices()); got != len(repeat) {
		t.Errorf("revoked = %d, want %d", got, len(repeat))
	}
	// The querier needs the new k1.
	q2 := newQuerierForEngine(t, f.eng, "edf-after-rotation")

	// Phase 3: unaudited queries run over the surviving population — and
	// the revoked devices show up only as collect errors. If every
	// compromised device was expelled, exactness is restored without
	// replication; compare against a plaintext reference over the
	// survivors' databases (the revoked devices' own readings drop out of
	// the population by design).
	remainingCorrupt, revokedSlots := 0, map[int]bool{}
	for slot, id := range f.eng.fleet.ids {
		revokedSlots[slot] = f.eng.revoked[id]
		if f.eng.fleet.corrupt[slot] && !f.eng.revoked[id] {
			remainingCorrupt++
		}
	}
	got, m, err := runQuery(f.eng, q2, flagshipSQL, protocol.KindSAgg, protocol.Params{PartitionTuples: 4})
	noErr(t, err)
	if m.CollectErrors != len(repeat) {
		t.Errorf("CollectErrors = %d, want %d revoked devices", m.CollectErrors, len(repeat))
	}
	if remainingCorrupt == 0 {
		assertSameResult(t, got, referenceExcluding(t, f, flagshipSQL, revokedSlots))
	} else {
		t.Logf("%d compromised devices not yet flagged; exactness deferred", remainingCorrupt)
	}
}

// TestPackedRevocation: a broadcast revocation expels the named devices,
// dead on their old epoch: they are collect errors, and a non-aggregate
// result holds the survivors' rows only.
func TestPackedRevocation(t *testing.T) {
	f := newFixture(t, 16, nil)
	noErr(t, f.eng.RevokeAndRotate("tds-00003", "tds-00007"))
	got, m, err := runQuery(f.eng, newQuerierForEngine(t, f.eng, "fresh"), `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	assertSameResult(t, got, referenceExcluding(t, f, `SELECT cid FROM Consumer`, map[int]bool{3: true, 7: true}))
	if m.CollectErrors != 2 {
		t.Errorf("CollectErrors = %d, want the 2 revoked", m.CollectErrors)
	}
}

// TestRevocationPopulationSemantics: after a broadcast revocation an
// aggregate equals a plaintext reference over the survivors only, every
// device in one account. An empty list is a plain rotation.
func TestRevocationPopulationSemantics(t *testing.T) {
	f := newFixture(t, 20, nil)
	victims := []string{"tds-00002", "tds-00005"}
	noErr(t, f.eng.RevokeAndRotate(victims...))
	got, m, err := runQuery(f.eng, newQuerierForEngine(t, f.eng, "edf2"), flagshipSQL, protocol.KindSAgg, protocol.Params{})
	noErr(t, err)
	if m.CollectErrors != 2 {
		t.Errorf("CollectErrors = %d, want the 2 revoked", m.CollectErrors)
	}
	assertSameResult(t, got, referenceExcluding(t, f, flagshipSQL, map[int]bool{2: true, 5: true}))
	// Revoking again with an unknown ID fails cleanly.
	if err := f.eng.RevokeAndRotate("tds-99999"); err == nil {
		t.Error("unknown device accepted")
	}
	// An empty list is a plain rotation: it succeeds and expels nobody new.
	if err := f.eng.RevokeAndRotate(); err != nil || len(f.eng.RevokedDevices()) != len(victims) {
		t.Errorf("plain rotation: err %v, revoked %v", err, f.eng.RevokedDevices())
	}
}

// TestRevokedDeviceCannotRejoin: a revoked device keeps its old ring, so
// a later rotation does not readmit it: it stays a collect error.
func TestRevokedDeviceCannotRejoin(t *testing.T) {
	f := newFixture(t, 10, nil)
	noErr(t, f.eng.RevokeAndRotate(slotID(3)))
	noErr(t, f.eng.RevokeAndRotate())
	_, m, err := runQuery(f.eng, newQuerierForEngine(t, f.eng, "edf3"), `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if m.CollectErrors != 1 || m.DepositedDevices != 9 {
		t.Errorf("CollectErrors = %d, deposited %d; want the one revoked device out", m.CollectErrors, m.DepositedDevices)
	}
}

// TestRevocationIsAllOrNothing: a revocation list naming an unknown device
// is refused before anyone is expelled — through RevokeAndRotate and
// through a query's RotationScript alike. Nobody is revoked, the epoch
// does not move, and the device named before the unknown one keeps
// depositing.
func TestRevocationIsAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		revoke func(e *Engine, ids ...string) error
	}{
		{"RevokeAndRotate", (*Engine).RevokeAndRotate},
		{"RotationScript", func(e *Engine, ids ...string) error {
			_, _, err := runRequest(e, Request{Querier: newQuerierForEngine(t, e, "rot"), SQL: countSQL,
				Kind: protocol.KindSAgg, Faults: &faultplan.Plan{Rotation: &faultplan.RotationScript{
					AfterDeposits: 1, Waves: 2, Revoke: ids}}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 10, nil)
			k1 := f.eng.K1()
			if err := tc.revoke(f.eng, "tds-00003", "tds-99999"); err == nil {
				t.Fatal("unknown device accepted")
			}
			if got := f.eng.RevokedDevices(); len(got) != 0 {
				t.Errorf("refused revocation still expelled %v", got)
			}
			if f.eng.K1() != k1 {
				t.Error("refused revocation rotated the keys")
			}
			if f.eng.rotationInProgress() {
				t.Error("refused revocation left a rotation open")
			}
			_, m, err := runQuery(f.eng, f.q, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
			noErr(t, err)
			if m.DepositedDevices != 10 || m.CollectErrors != 0 {
				t.Errorf("deposited %d of 10 devices, %d collect errors", m.DepositedDevices, m.CollectErrors)
			}
			// The refused call must not have burnt the broadcast slot: a
			// later rotation without revocations reaches tds-00003 too.
			noErr(t, tc.revoke(f.eng, "tds-00007"))
			_, m, err = runQuery(f.eng, newQuerierForEngine(t, f.eng, "edf2"),
				`SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
			noErr(t, err)
			if m.DepositedDevices != 9 || m.CollectErrors != 1 {
				t.Errorf("after revoking one device: deposited %d, %d collect errors; want 9 and 1",
					m.DepositedDevices, m.CollectErrors)
			}
		})
	}
}
