package tds

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// admissionFleet is what the devices of the admission tests hold in
// common: one schema, one authority, two epochs of key material and two
// policies, each a pointer the fleet shares — as an engine's does.
type admissionFleet struct {
	schema      *storage.Schema
	authority   *accessctl.Authority
	km1, km2    *KeyMaterial
	allow, deny *accessctl.Policy
}

func newAdmissionFleet(t *testing.T) admissionFleet {
	t.Helper()
	keys := tdscrypto.NewKeyAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "m"))
	km1, err := NewKeyMaterial(keys.RingAt(0))
	if err != nil {
		t.Fatal(err)
	}
	km2, err := NewKeyMaterial(keys.RingAt(1))
	if err != nil {
		t.Fatal(err)
	}
	return admissionFleet{
		schema: schema(), authority: accessctl.NewAuthority(authKey), km1: km1, km2: km2,
		allow: &accessctl.Policy{Rules: []accessctl.Rule{{Role: "analyst"}}},
		deny:  &accessctl.Policy{Rules: []accessctl.Rule{{Role: "auditor"}}},
	}
}

// device enrolls one device holding a single reading.
func (f admissionFleet) device(t *testing.T, id string, epoch int, km *KeyMaterial,
	policy *accessctl.Policy, shared *PlanCache) *TDS {
	t.Helper()
	db := storage.NewLocalDB(f.schema)
	if err := db.Insert("Power", row(1, "Paris", 10)); err != nil {
		t.Error(err) // not Fatal: devices are built on the test's goroutines too
	}
	d := NewWithMaterial(id, db, km, policy, f.authority)
	d.SetKeys(epoch, km, nil)
	d.Shared = shared
	return d
}

// TestAdmissionTable: whatever a device reads from the shared table is what
// it would have decided alone, a record is only ever read by devices holding
// every input it was decided from, and each key is decided once however
// many devices and goroutines meet it (run under -race by check.sh).
func TestAdmissionTable(t *testing.T) {
	f := newAdmissionFleet(t)
	post := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	post.Epoch = 1
	forged := makePost(t, aggSQL, protocol.KindSAgg, protocol.Params{})
	forged.Epoch = 1
	forged.Credential.Roles = []string{"analyst", "admin"} // not what the authority signed
	expiry := post.Credential.Expiry

	type want struct {
		fails  bool // at the open
		denied bool
	}
	// Every case builds its device twice, over the shared table and over
	// none, and both must meet the same fate.
	type builder func(id string, shared *PlanCache) *TDS
	enrolled := func(epoch int, km *KeyMaterial, policy *accessctl.Policy) builder {
		return func(id string, s *PlanCache) *TDS { return f.device(t, id, epoch, km, policy, s) }
	}
	epoch1 := enrolled(1, f.km1, f.allow)
	migrated := func(dropGrace bool) builder {
		return func(id string, s *PlanCache) *TDS {
			d := epoch1(id, s)
			d.SetKeys(2, f.km2, f.km1)
			if dropGrace {
				d.SetKeys(2, f.km2, nil)
			}
			return d
		}
	}
	cases := []struct {
		name  string
		build builder
		post  *protocol.QueryPost
		now   time.Time
		want  want
	}{
		{"epoch 1", epoch1, post, t0, want{}},
		{"epoch 1, its neighbour", epoch1, post, t0, want{}},
		{"epoch 2, never held epoch 1", enrolled(2, f.km2, f.allow), post, t0, want{fails: true}},
		{"migrated, serving through grace", migrated(false), post, t0, want{}},
		{"migrated, grace dropped", migrated(true), post, t0, want{fails: true}},
		{"denying policy", enrolled(1, f.km1, f.deny), post, t0, want{denied: true}},
		{"forged signature", epoch1, forged, t0, want{denied: true}},
		{"clock past expiry", epoch1, post, expiry.Add(time.Second), want{denied: true}},
		{"clock at expiry", epoch1, post, expiry, want{}},
	}

	shared := NewPlanCache()
	var plansMu sync.Mutex
	plans := make(map[*sqlexec.Plan]bool) // every plan any device worked from
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, tc := range cases {
					id := fmt.Sprintf("tds-%d-%d-%d", g, round, i)
					c := cfg()
					c.Now = tc.now
					tuples, stats, err := tc.build(id, shared).Collect(tc.post, c)
					_, alone, aloneErr := tc.build(id, nil).Collect(tc.post, c)
					if (err != nil) != tc.want.fails || (err == nil) != (aloneErr == nil) ||
						(err != nil && err.Error() != aloneErr.Error()) {
						t.Errorf("%s: err = %v, alone %v, want failure %v", tc.name, err, aloneErr, tc.want.fails)
						continue
					}
					if stats != alone || stats.Denied != tc.want.denied {
						t.Errorf("%s: stats %+v, alone %+v, want denied %v", tc.name, stats, alone, tc.want.denied)
					}
					if err != nil {
						continue
					}
					if stats.Denied != (stats.Dummy == 1) || stats.Denied == (stats.True == 1) || len(tuples) != 1 {
						t.Errorf("%s: %d tuples, stats %+v: a denied device emits the dummy, an admitted one its reading",
							tc.name, len(tuples), stats)
					}
					d := tc.build(id, shared)
					plan, _, _ := d.admit(d.matFor(tc.post), tc.post)
					plansMu.Lock()
					plans[plan] = true
					plansMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Both posts carry the same ID, so one table holds every key met:
	// (post, km1, allow), (post, km2, allow) — which does not open —,
	// (post, km1, deny) and (forged, km1, allow). Each decision compiles
	// its own plan, so the plans seen count the decisions taken.
	records := shared.queries[post.ID].admissions
	if len(records) != 4 || len(plans) != 3 {
		t.Errorf("%d admission records over %d plans for %d devices, want 4 over 3: one decision per key",
			len(records), len(plans), 8*4*len(cases))
	}
	for k, a := range records {
		if stale := k.km == f.km2; (a.err != nil) != stale || (a.plan == nil) != stale {
			t.Errorf("record of km2=%v: err %v, plan %v", stale, a.err, a.plan)
		}
		if granted := k.post == post && k.policy == f.allow && k.km == f.km1; a.granted != granted {
			t.Errorf("record (forged=%v, deny=%v, km2=%v) granted = %v",
				k.post == forged, k.policy == f.deny, k.km == f.km2, a.granted)
		}
	}
	shared.Drop(post.ID)
	if len(shared.queries) != 0 {
		t.Errorf("%d query tables outlive the query", len(shared.queries))
	}
}

// TestCollectAdmissionAllocBudget: on a warm record the n-th device's
// Collect pays for its own reading and nothing of the admission — no
// decrypted statement, no parse, no compile, no signing payload, no policy
// walk — so a statement forty times the size costs the same; and with the
// caller's Out reused it pays nothing per row either, so three hundred
// readings cost what one does.
func TestCollectAdmissionAllocBudget(t *testing.T) {
	f := newAdmissionFleet(t)
	long := strings.Repeat(" AND cid <> 99 AND district <> 'nowhere'", 40)
	collect := func(sql string, readings int, out []protocol.WireTuple) float64 {
		post := makePost(t, sql, protocol.KindSAgg, protocol.Params{})
		shared := NewPlanCache()
		c := cfg()
		if _, _, err := f.device(t, "tds-first", 1, f.km1, f.allow, shared).Collect(post, c); err != nil {
			t.Fatal(err)
		}
		d := f.device(t, "tds-nth", 1, f.km1, f.allow, shared)
		for i := 1; i < readings; i++ {
			if err := d.DB.Insert("Power", row(1, "Paris", float64(10+i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Out = out
		return testing.AllocsPerRun(50, func() {
			c.Arena = &tdscrypto.Arena{} // as the engine does per worker: blocks and nonces amortize over its devices
			tuples, stats, err := d.Collect(post, c)
			if err != nil || len(tuples) != readings || stats.True != readings {
				t.Fatalf("collected %d tuples, stats %+v: %v", len(tuples), stats, err)
			}
		})
	}
	const short = `SELECT district, SUM(cons) FROM Power WHERE cons > 1 GROUP BY district`
	small, large := collect(short, 1, nil), collect(strings.Replace(short, " GROUP", long+" GROUP", 1), 1, nil)
	// Measured at 3 and 3 (4 before the payload buffer was the worker's
	// Scratch, 9 before the scan's buffers were reused): the arena and its
	// block, and the output. Neither the warm admission nor the scan
	// allocates. The cold call of the long statement allocates some 700
	// times. The slack is for pooled states a GC or the race detector drops.
	if large != small || large > 5 {
		t.Errorf("a warm Collect allocates %v times for the short statement and %v for the long one; budget 5, and equal",
			small, large)
	}
	// Measured at 2 and 2 (3 and 8 before): the same less the output.
	out := make([]protocol.WireTuple, 0, 300)
	one, many := collect(short, 1, out), collect(short, 300, out)
	if many != one || many > 4 {
		t.Errorf("into a reused Out a warm Collect allocates %v times over one reading and %v over 300; budget 4, and equal",
			one, many)
	}
}
