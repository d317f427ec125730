package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// The packed-fleet contract: Config.PackedFleet changes the memory shape
// of the fleet and nothing else (TestComposedFaults holds the two
// representations to bit-equal runs).

// TestPackedRotationStaleEpoch: packed slots strand and heal exactly
// like eager devices (TestKeyRotationLocksOutStaleFleet).
func TestPackedRotationStaleEpoch(t *testing.T) { checkStrandedFleetHeals(t, true) }

// checkStrandedFleetHeals: a fleet stranded on epoch 0 (no device
// received the rotation's bundle) fails every epoch-1 query, and the next
// rotation heals it: the stranded devices open its broadcast and migrate.
func checkStrandedFleetHeals(t *testing.T, packed bool) {
	f := newFixture(t, 12, func(c *Config) { c.PackedFleet = packed })
	strandFleet(f.eng)
	fresh := newQuerierForEngine(t, f.eng, "fresh")
	got, m, err := runQuery(f.eng, fresh, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 0 || m.CollectErrors != 12 {
		t.Errorf("packed=%v: stale fleet rows=%d errors=%d, want 0/12",
			packed, len(got.Rows), m.CollectErrors)
	}
	// An aggregate has phase work no stale device can open: a typed abort.
	if _, _, err := runQuery(f.eng, fresh, countSQL, protocol.KindSAgg, protocol.Params{}); !errors.Is(err, ErrNoEligibleTDS) {
		t.Errorf("packed=%v: S_Agg over the stale fleet: %v, want ErrNoEligibleTDS", packed, err)
	}
	if err := f.eng.RevokeAndRotate(); err != nil {
		t.Fatal(err)
	}
	healed := newQuerierForEngine(t, f.eng, "healed")
	got, m, err = runQuery(f.eng, healed, `SELECT cid FROM Consumer`, protocol.KindBasic, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 12 || m.CollectErrors != 0 {
		t.Errorf("packed=%v: after the rotation rows=%d errors=%d", packed, len(got.Rows), m.CollectErrors)
	}
}

// TestPackedRevocation: broadcast revocation must expel the same devices
// from a packed fleet, with the survivors re-keyed through the broadcast
// and the revoked slots dead on their old epoch.
func TestPackedRevocation(t *testing.T) {
	type outcome struct {
		rows []string
		m    Metrics
	}
	run := func(packed bool) outcome {
		f := newFixture(t, 16, func(c *Config) { c.PackedFleet = packed })
		if err := f.eng.RevokeAndRotate("tds-00003", "tds-00007"); err != nil {
			t.Fatalf("packed=%v: %v", packed, err)
		}
		fresh := newQuerierForEngine(t, f.eng, "fresh")
		resp, err := f.eng.Execute(context.Background(), Request{
			Querier: fresh, SQL: `SELECT cid FROM Consumer`, Kind: protocol.KindBasic,
		})
		if err != nil {
			t.Fatalf("packed=%v: %v", packed, err)
		}
		assertDeviceAccounts(t, resp.Metrics, false)
		m := *resp.Metrics
		return outcome{rows: sortedRows(resp.Result), m: m}
	}
	eager, packed := run(false), run(true)
	if packed.m.CollectErrors != 2 {
		t.Errorf("revoked packed devices: CollectErrors = %d, want 2", packed.m.CollectErrors)
	}
	if len(packed.rows) != 14 {
		t.Errorf("rows = %d, want the 14 survivors", len(packed.rows))
	}
	if !reflect.DeepEqual(eager.rows, packed.rows) {
		t.Error("rows diverge between fleet shapes")
	}
	if !reflect.DeepEqual(eager.m, packed.m) {
		t.Error("metrics diverge between fleet shapes")
	}
}

// heapInUse forces a full collection and reports live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPackedMemoryFootprint: each representation holds an enrolled device
// within its own budget — a packed slot in at most 256 B, an eager device,
// which keeps a live database but borrows its epoch's key material like a
// packed one, in at most 1.5 KB at 2 000 devices. Retaining the populate
// scratch databases, or going back to one expanded key ring per device
// (~2.2 KB more), blows either budget. The 100k case (check.sh runs it
// under GOMEMLIMIT=2GiB) also collects once: every device must deposit,
// and the live heap must be back inside the enrollment budget afterwards,
// so a walk that keeps the devices it wakes fails here.
func TestPackedMemoryFootprint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		packed  bool
		budget  int64 // bytes per device
		collect bool
	}{
		{"eager", 2000, false, 1536, false},
		{"packed", 2000, true, 256, false},
		{"packed-100k", 100_000, true, 256, true},
	} {
		if tc.collect && testing.Short() {
			continue
		}
		base := heapInUse()
		eng := newFixtureEngineOnly(t, tc.n, tc.packed)
		perDevice := func() int64 { return int64(heapInUse()-base) / int64(tc.n) }
		per := perDevice()
		t.Logf("%s: %d bytes/device", tc.name, per)
		if per <= 0 {
			t.Skip("heap delta too noisy to measure")
		}
		if per > tc.budget {
			t.Errorf("%s fleet retains %d B/device, budget %d", tc.name, per, tc.budget)
		}
		if tc.collect {
			resp, err := eng.Execute(context.Background(), Request{
				Querier: newQuerierForEngine(t, eng, "edf"), SQL: flagshipSQL,
				Kind: protocol.KindSAgg, CollectOnly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := resp.Metrics.DepositedDevices; got != tc.n {
				t.Errorf("%s: %d of %d devices deposited", tc.name, got, tc.n)
			}
			after := perDevice() // resp is dead here: the trace and journal go too
			t.Logf("%s: %d bytes/device after one collection pass", tc.name, after)
			if after > tc.budget {
				t.Errorf("%s fleet holds %d B/device after a collection pass, budget %d",
					tc.name, after, tc.budget)
			}
		}
		runtime.KeepAlive(eng)
	}
}

// newFixtureEngineOnly provisions an engine without the fixture's habit
// of retaining every populated database (which would dominate the heap
// measurements above).
func newFixtureEngineOnly(t *testing.T, fleetSize int, packed bool) *Engine {
	t.Helper()
	schema := meterSchema()
	cfg := Config{
		Schema: schema,
		Policy: &accessctl.Policy{Rules: []accessctl.Rule{{
			Role: "energy-analyst", AggregateOnly: true,
		}}},
		AuthorityKey: tdscrypto.DeriveKey(tdscrypto.Key{}, "authority"),
		MasterKey:    tdscrypto.DeriveKey(tdscrypto.Key{}, "master"),
		Seed:         7,
		PackedFleet:  packed,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProvisionFleet(fleetSize, func(i int) *storage.LocalDB {
		return householdDB(schema, i)
	}); err != nil {
		t.Fatal(err)
	}
	return eng
}
