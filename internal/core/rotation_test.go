package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/querier"
	"github.com/trustedcells/tcq/internal/storage"
)

func newQuerierForEngine(t testing.TB, eng *Engine, id string) *querier.Querier {
	t.Helper()
	cred := eng.Authority().Issue(id, []string{"energy-analyst", "auditor"},
		time.Unix(1700000000, 0).Add(365*24*time.Hour))
	q, err := querier.New(id, eng.K1(), cred, eng.Schema())
	noErr(t, err)
	return q
}

// strandFleet advances the key epoch with no device told: the state a
// rotation whose trust bundle reached nobody leaves.
func strandFleet(e *Engine) {
	e.life.Lock()
	defer e.life.Unlock()
	must(e.rotateKeysLocked())
}

// pendingWaves counts the waves of the rotation in progress not yet
// delivered.
func (e *Engine) pendingWaves() int {
	e.life.RLock()
	defer e.life.RUnlock()
	if e.rot == nil {
		return 0
	}
	return len(e.rot.waves) - e.rot.nextWave
}

// TestKeyRotationLocksOutStaleFleet: a fleet stranded on epoch 0 (no
// device received the rotation's bundle) fails every epoch-1 query, and
// the next rotation heals it: the stranded devices open its broadcast and
// migrate, with a row one of them took while stranded.
func TestKeyRotationLocksOutStaleFleet(t *testing.T) {
	f := newFixture(t, 12, nil)
	strandFleet(f.eng)
	f.insert(t, 5, "Consumer", storage.Row{storage.Int(500), storage.Str("Brest"), storage.Str("flat")})
	fresh := newQuerierForEngine(t, f.eng, "fresh")
	got, m, err := runQuery(f.eng, fresh, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if len(got.Rows) != 0 || m.CollectErrors != 12 {
		t.Errorf("stale fleet rows=%d errors=%d, want 0/12", len(got.Rows), m.CollectErrors)
	}
	// An aggregate has phase work no stale device can open: a typed abort.
	if _, _, err := runQuery(f.eng, fresh, countSQL, protocol.KindSAgg, protocol.Params{}); !errors.Is(err, ErrNoEligibleTDS) {
		t.Errorf("S_Agg over the stale fleet: %v, want ErrNoEligibleTDS", err)
	}
	noErr(t, f.eng.RevokeAndRotate())
	healed := newQuerierForEngine(t, f.eng, "healed")
	got, m, err = runQuery(f.eng, healed, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if want := f.reference(t, `SELECT cid FROM Consumer`); m.CollectErrors != 0 || !reflect.DeepEqual(sortedRows(got), sortedRows(want)) {
		t.Errorf("after the rotation rows %v, %d errors; want %v", sortedRows(got), m.CollectErrors, sortedRows(want))
	}
}

func TestStaleQuerierAgainstRotatedFleet(t *testing.T) {
	f := newFixture(t, 8, nil)
	stale := f.q // built with epoch-0 K1
	noErr(t, f.eng.RevokeAndRotate())
	got, m, err := runQuery(f.eng, stale, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	if err != nil {
		// Also acceptable: the querier cannot even decrypt the outcome.
		return
	}
	if len(got.Rows) != 0 {
		t.Fatalf("stale querier read %d rows across the epoch boundary", len(got.Rows))
	}
	if m.CollectErrors != f.eng.FleetSize() {
		t.Errorf("CollectErrors = %d", m.CollectErrors)
	}
}

// TestRotationAfterFleetGrowth: the broadcast tree is sized at the first
// rotation; a rotation after the fleet has outgrown it must rebuild the
// tree, keep the earlier revocation, and leave no rotation half-applied.
func TestRotationAfterFleetGrowth(t *testing.T) {
	f := newFixture(t, 8, nil)
	noErr(t, f.eng.RevokeAndRotate("tds-00001"))
	err := f.eng.ProvisionFleet(4, func(i int) *storage.LocalDB { return householdDB(f.eng.Schema(), 8+i) })
	noErr(t, err)
	if err := f.eng.RevokeAndRotate("tds-00009"); err != nil {
		t.Errorf("rotation after growth: %v", err)
	}
	if f.eng.rotationInProgress() {
		t.Fatal("the rotation was left half-applied")
	}
	fresh := newQuerierForEngine(t, f.eng, "fresh")
	got, m, err := runQuery(f.eng, fresh, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	noErr(t, err)
	if len(got.Rows) != 10 || m.CollectErrors != 2 {
		t.Errorf("rows=%d errors=%d, want the 10 survivors and the 2 revoked", len(got.Rows), m.CollectErrors)
	}
	if got := f.eng.RevokedDevices(); !reflect.DeepEqual(got, []string{"tds-00001", "tds-00009"}) {
		t.Errorf("revoked = %v", got)
	}
}
