package querier

import (
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

func schema() *storage.Schema {
	return storage.MustSchema(storage.TableDef{Name: "T", Columns: []storage.Column{
		{Name: "a", Kind: storage.KindInt},
		{Name: "g", Kind: storage.KindString},
	}})
}

func newQuerier(t *testing.T, k1 tdscrypto.Key) *Querier {
	t.Helper()
	q, err := New("q", k1, accessctl.Credential{QuerierID: "q", Expiry: time.Now()}, schema())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuildPostValidatesQuery(t *testing.T) {
	q := newQuerier(t, tdscrypto.MustRandomKey())
	post, err := q.BuildPost("q-1", `SELECT g, COUNT(*) FROM T GROUP BY g SIZE 7`,
		protocol.KindSAgg, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if post.Size.MaxTuples != 7 || post.Kind != protocol.KindSAgg {
		t.Errorf("post = %+v", post)
	}
	if _, err := q.BuildPost("q-2", `garbage`, protocol.KindSAgg, protocol.Params{}); err == nil {
		t.Error("garbage SQL accepted")
	}
	if _, err := q.BuildPost("q-3", `SELECT nope FROM T`, protocol.KindBasic, protocol.Params{}); err == nil {
		t.Error("unknown column accepted (schema check skipped)")
	}
}

func TestDecryptResult(t *testing.T) {
	k1raw := tdscrypto.MustRandomKey()
	q := newQuerier(t, k1raw)
	post, err := q.BuildPost("q-1", `SELECT a, g FROM T`, protocol.KindBasic, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	k1 := q.k1
	enc := func(payload []byte) protocol.WireTuple {
		ct, err := k1.NDetEncrypt(payload, post.AAD())
		if err != nil {
			t.Fatal(err)
		}
		return protocol.WireTuple{Ciphertext: ct}
	}
	tuples := []protocol.WireTuple{
		enc(protocol.AppendRowPayload(nil, protocol.MarkerTrue, storage.Row{storage.Int(1), storage.Str("x")})),
		enc(protocol.AppendDummyPayload(nil, 16)), // stray dummy is skipped, not fatal
		enc(protocol.AppendRowPayload(nil, protocol.MarkerTrue, storage.Row{storage.Int(2), storage.Str("y")})),
	}
	res, err := q.DecryptResult(post, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "a" || res.Columns[1] != "g" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestDecryptResultRejectsWrongKeyTuples(t *testing.T) {
	q := newQuerier(t, tdscrypto.MustRandomKey())
	post, err := q.BuildPost("q-1", `SELECT a FROM T`, protocol.KindBasic, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	other := newQuerier(t, tdscrypto.MustRandomKey()).k1
	ct, err := other.NDetEncrypt(protocol.AppendRowPayload(nil, protocol.MarkerTrue, storage.Row{storage.Int(1)}), post.AAD())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.DecryptResult(post, []protocol.WireTuple{{Ciphertext: ct}}); err == nil {
		t.Error("foreign ciphertext accepted")
	}
}

func TestQuerierCannotOpenK2Intermediates(t *testing.T) {
	// The querier holds k1 only: intermediate results (k2) must stay
	// opaque even if the SSI leaks them wholesale (collusion scenario of
	// Section 3.2).
	master := tdscrypto.DeriveKey(tdscrypto.Key{}, "m")
	ring := tdscrypto.NewKeyAuthority(master).Ring()
	q := newQuerier(t, ring.K1)
	post, err := q.BuildPost("q-1", `SELECT a FROM T`, protocol.KindBasic, protocol.Params{})
	if err != nil {
		t.Fatal(err)
	}
	k2 := newQuerier(t, ring.K2).k1 // a suite under k2, as a TDS holds it
	ct, err := k2.NDetEncrypt(protocol.AppendRowPayload(nil, protocol.MarkerTrue, storage.Row{storage.Int(42)}), post.AAD())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.DecryptResult(post, []protocol.WireTuple{{Ciphertext: ct}}); err == nil {
		t.Fatal("querier opened a k2 intermediate — key separation broken")
	}
}
