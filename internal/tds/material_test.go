package tds

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// TestKeyMaterialEquivalence: a TDS built on shared, pre-expanded key
// material must be observationally identical to one that expanded the
// same ring itself — same deterministic tags, same plaintexts under the
// same keys, same deposit commitments, same audit digests. This is the
// batching contract of the fleet: one KeyMaterial per epoch backs every
// device woken at it.
func TestKeyMaterialEquivalence(t *testing.T) {
	mkDB := func() *storage.LocalDB {
		db := storage.NewLocalDB(schema())
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(db.Insert("Power", row(1, "Paris", 10)))
		must(db.Insert("Power", row(1, "Lyon", 20)))
		return db
	}
	policy := &accessctl.Policy{Rules: []accessctl.Rule{{Role: "analyst"}}}
	auth := accessctl.NewAuthority(authKey)

	eager, err := New("tds-eq", mkDB(), ring, policy, auth)
	if err != nil {
		t.Fatal(err)
	}
	km, err := NewKeyMaterial(ring)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewWithMaterial("tds-eq", mkDB(), km, policy, auth)

	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}, {storage.Str("Metz")}}
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	collect := func(d *TDS) ([]protocol.WireTuple, CollectStats) {
		c := CollectConfig{Rng: rand.New(rand.NewSource(7)), Now: t0, Domain: domain}
		tuples, stats, err := d.Collect(post, c)
		if err != nil {
			t.Fatal(err)
		}
		return tuples, stats
	}
	te, se := collect(eager)
	ts, ss := collect(shared)
	if se != ss {
		t.Fatalf("stats diverge: %+v vs %+v", se, ss)
	}
	if len(te) != len(ts) {
		t.Fatalf("tuple counts diverge: %d vs %d", len(te), len(ts))
	}
	k2 := newTDS(t).km.K2
	for i := range te {
		if !bytes.Equal(te[i].Tag, ts[i].Tag) {
			t.Errorf("tuple %d: Det_Enc tags diverge", i)
		}
		pe, err := k2.Decrypt(te[i].Ciphertext, post.AAD())
		if err != nil {
			t.Fatal(err)
		}
		ps, err := k2.Decrypt(ts[i].Ciphertext, post.AAD())
		if err != nil {
			t.Fatalf("tuple %d: shared-material ciphertext does not open under the ring: %v", i, err)
		}
		if !bytes.Equal(pe, ps) {
			t.Errorf("tuple %d: plaintexts diverge", i)
		}
	}

	var ce, cs [tdscrypto.CommitSize]byte
	if ee, es := eager.CommitDeposit(&ce, post, 1, te), shared.CommitDeposit(&cs, post, 1, te); ce != cs || ee != es {
		t.Error("deposit commitments diverge")
	}

	outE, err := eager.Aggregate(post, te, EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	outS, err := shared.Aggregate(post, te, EmitWhole)
	if err != nil {
		t.Fatal(err)
	}
	if len(outE) != len(outS) {
		t.Fatalf("aggregate outputs diverge: %d vs %d", len(outE), len(outS))
	}
	for i := range outE {
		if !bytes.Equal(outE[i].Digest, outS[i].Digest) {
			t.Errorf("partial %d: audit digests diverge", i)
		}
	}
}

// TestCollectArenaMatchesPlain: an arena-backed Collect must yield the
// same deterministic bytes (tags) and the same plaintexts as the
// allocating path.
func TestCollectArenaMatchesPlain(t *testing.T) {
	d := newTDS(t, row(1, "Paris", 10), row(2, "Lyon", 5))
	domain := []storage.Row{{storage.Str("Paris")}, {storage.Str("Lyon")}}
	post := makePost(t, aggSQL, protocol.KindCNoise, protocol.Params{})
	run := func(a *tdscrypto.Arena) []protocol.WireTuple {
		c := CollectConfig{Rng: rand.New(rand.NewSource(3)), Now: t0, Domain: domain, Arena: a}
		tuples, _, err := d.Collect(post, c)
		if err != nil {
			t.Fatal(err)
		}
		return tuples
	}
	plain := run(nil)
	slab := run(new(tdscrypto.Arena))
	if len(plain) != len(slab) {
		t.Fatalf("tuple counts diverge: %d vs %d", len(plain), len(slab))
	}
	k2 := newTDS(t).km.K2
	for i := range plain {
		if !bytes.Equal(plain[i].Tag, slab[i].Tag) {
			t.Errorf("tuple %d: tags diverge", i)
		}
		pp, err := k2.Decrypt(plain[i].Ciphertext, post.AAD())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := k2.Decrypt(slab[i].Ciphertext, post.AAD())
		if err != nil {
			t.Fatalf("tuple %d: arena ciphertext: %v", i, err)
		}
		if !bytes.Equal(pp, sp) {
			t.Errorf("tuple %d: plaintexts diverge", i)
		}
	}
}
