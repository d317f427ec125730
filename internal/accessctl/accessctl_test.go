package accessctl

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

var (
	now    = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	expiry = now.Add(24 * time.Hour)
)

func issuer() *Authority { return NewAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "authority")) }

// Verify checks the credential's signature and its expiry at now, as a
// device does in two halves.
func (a *Authority) Verify(c Credential, now time.Time) error {
	if !a.Signed(&c) {
		return errors.New("accessctl: invalid credential signature")
	}
	if now.After(c.Expiry) {
		return fmt.Errorf("accessctl: credential expired at %s", c.Expiry.Format(time.RFC3339))
	}
	return nil
}

func TestCredentialVerify(t *testing.T) {
	a := issuer()
	c := a.Issue("edf", []string{"energy-analyst"}, expiry)
	if err := a.Verify(c, now); err != nil {
		t.Fatal(err)
	}
	if !c.HasRole("Energy-Analyst") {
		t.Error("role check must be case-insensitive")
	}
	if c.HasRole("doctor") {
		t.Error("unexpected role")
	}
}

func TestCredentialExpiry(t *testing.T) {
	a := issuer()
	c := a.Issue("edf", []string{"r"}, now.Add(-time.Second))
	if err := a.Verify(c, now); err == nil {
		t.Fatal("expired credential accepted")
	}
}

func TestCredentialTamperDetection(t *testing.T) {
	a := issuer()
	c := a.Issue("edf", []string{"r"}, expiry)
	querier, roles, extended, flipped := c, c, c, c
	querier.QuerierID, roles.Roles, extended.Expiry = "mallory", []string{"r", "admin"}, expiry.Add(time.Hour)
	flipped.Signature = append([]byte(nil), c.Signature...)
	flipped.Signature[0] ^= 1
	for _, forged := range []struct {
		what string
		c    Credential
	}{{"forged querier", querier}, {"forged roles", roles}, {"extended expiry", extended}, {"bit-flipped signature", flipped}} {
		if err := a.Verify(forged.c, now); err == nil {
			t.Errorf("%s accepted", forged.what)
		}
	}
}

func TestCredentialWrongAuthority(t *testing.T) {
	a := issuer()
	b := NewAuthority(tdscrypto.DeriveKey(tdscrypto.Key{}, "other"))
	c := a.Issue("edf", []string{"r"}, expiry)
	if err := b.Verify(c, now); err == nil {
		t.Fatal("credential from a foreign authority accepted")
	}
}

func policyAggOnly() *Policy {
	return &Policy{Rules: []Rule{{
		Role:          "energy-analyst",
		Tables:        []string{"Power", "Consumer"},
		AggregateOnly: true,
	}}}
}

func cred(roles ...string) Credential {
	return Credential{QuerierID: "q", Roles: roles, Expiry: expiry}
}

// parse is sqlparse.Parse for the literal queries these tests know are valid.
func parse(src string) *sqlparse.SelectStmt {
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		panic(err)
	}
	return stmt
}

func TestAuthorizeAggregateOnly(t *testing.T) {
	p := policyAggOnly()
	agg := parse(`SELECT AVG(cons) FROM Power GROUP BY period`)
	if err := p.Authorize(cred("energy-analyst"), agg); err != nil {
		t.Fatalf("aggregate denied: %v", err)
	}
	ident := parse(`SELECT cid, cons FROM Power`)
	err := p.Authorize(cred("energy-analyst"), ident)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("identifying query allowed: %v", err)
	}
}

func TestAuthorizeTableScope(t *testing.T) {
	p := &Policy{Rules: []Rule{{Role: "r", Tables: []string{"Power"}}}}
	ok := parse(`SELECT cons FROM Power`)
	if err := p.Authorize(cred("r"), ok); err != nil {
		t.Fatal(err)
	}
	bad := parse(`SELECT cons FROM Power P, Consumer C`)
	if err := p.Authorize(cred("r"), bad); !errors.Is(err, ErrDenied) {
		t.Fatalf("out-of-scope table allowed: %v", err)
	}
}

func TestAuthorizeNoRole(t *testing.T) {
	p := policyAggOnly()
	q := parse(`SELECT AVG(cons) FROM Power GROUP BY period`)
	if err := p.Authorize(cred("stranger"), q); !errors.Is(err, ErrDenied) {
		t.Fatalf("unknown role allowed: %v", err)
	}
	empty := &Policy{}
	if err := empty.Authorize(cred("r"), q); !errors.Is(err, ErrDenied) {
		t.Fatalf("empty policy allowed: %v", err)
	}
}

func TestAuthorizeDeniedColumns(t *testing.T) {
	p := &Policy{Rules: []Rule{{
		Role:          "r",
		DeniedColumns: []string{"Consumer.cid", "accommodation"},
	}}}
	for _, q := range []string{
		`SELECT C.cid FROM Consumer C`,
		`SELECT district FROM Consumer WHERE accommodation = 'flat'`,
		`SELECT AVG(cons) FROM Power P, Consumer C GROUP BY C.accommodation`,
	} {
		if err := p.Authorize(cred("r"), parse(q)); !errors.Is(err, ErrDenied) {
			t.Errorf("denied column allowed in %q: %v", q, err)
		}
	}
	if err := p.Authorize(cred("r"), parse(`SELECT district FROM Consumer`)); err != nil {
		t.Errorf("legal query denied: %v", err)
	}
}

func TestAuthorizeMostPermissiveRuleWins(t *testing.T) {
	p := &Policy{Rules: []Rule{
		{Role: "analyst", AggregateOnly: true},
		{Role: "doctor", Tables: []string{"Power"}},
	}}
	// A querier holding both roles may run identifying queries on Power.
	q := parse(`SELECT cons FROM Power`)
	if err := p.Authorize(cred("analyst", "doctor"), q); err != nil {
		t.Fatalf("union of roles should allow: %v", err)
	}
	// Column denied by one rule but not the other stays allowed.
	p = &Policy{Rules: []Rule{
		{Role: "a", DeniedColumns: []string{"cons"}},
		{Role: "b"},
	}}
	if err := p.Authorize(cred("a", "b"), q); err != nil {
		t.Fatalf("column denied despite permissive rule: %v", err)
	}
	if err := p.Authorize(cred("a"), q); !errors.Is(err, ErrDenied) {
		t.Fatalf("column allowed for restricted role: %v", err)
	}
}

func TestAuthorizeNoCrossRulePrivilegeCombination(t *testing.T) {
	// Regression: an aggregate-only rule over all tables plus an
	// identifying rule over Patient must NOT combine into identifying
	// access over Visit — no single rule allows that query.
	p := &Policy{Rules: []Rule{
		{Role: "epidemiologist", AggregateOnly: true},
		{Role: "alert-service", Tables: []string{"Patient"}},
	}}
	c := cred("epidemiologist", "alert-service")
	leak := parse(`SELECT pid, cost FROM Visit`)
	if err := p.Authorize(c, leak); !errors.Is(err, ErrDenied) {
		t.Fatalf("cross-rule combination authorized an identifying Visit query: %v", err)
	}
	// Each rule still authorizes what it intends.
	if err := p.Authorize(c, parse(`SELECT COUNT(*) FROM Visit GROUP BY year`)); err != nil {
		t.Errorf("aggregate over Visit denied: %v", err)
	}
	if err := p.Authorize(c, parse(`SELECT pid FROM Patient`)); err != nil {
		t.Errorf("identifying over Patient denied: %v", err)
	}
}

// TestAuthorizeDeniedColumnEveryPosition puts a denied column in every
// position the dialect has for one: each query must be denied.
func TestAuthorizeDeniedColumnEveryPosition(t *testing.T) {
	p := &Policy{Rules: []Rule{{Role: "r", DeniedColumns: []string{"district"}}}}
	for _, c := range []struct{ pos, q string }{
		{"select item", `SELECT district FROM Consumer`},
		{"qualified select item", `SELECT C.district FROM Consumer C`},
		{"* may name it", `SELECT * FROM Consumer`},
		{"aggregate argument", `SELECT COUNT(DISTINCT district) FROM Consumer`},
		{"comparison", `SELECT cid FROM Consumer WHERE district = 'Paris'`},
		{"comparison, right", `SELECT cid FROM Consumer C WHERE 'Paris' <> C.district`},
		{"OR", `SELECT cid FROM Consumer WHERE cid = 1 OR district = 'x'`},
		{"IN", `SELECT cid FROM Consumer WHERE district IN ('Paris', 'Lyon')`},
		{"IN list", `SELECT cid FROM Consumer WHERE 'Paris' NOT IN (cid, district)`},
		{"BETWEEN", `SELECT cid FROM Consumer WHERE district BETWEEN 'A' AND 'M'`},
		{"BETWEEN bound", `SELECT cid FROM Consumer WHERE 'M' BETWEEN 'A' AND district`},
		{"IS NULL", `SELECT cid FROM Consumer WHERE district IS NOT NULL`},
		{"NOT", `SELECT cid FROM Consumer WHERE NOT (district = 'Paris')`},
		{"GROUP BY", `SELECT COUNT(*) FROM Consumer GROUP BY district`},
		{"GROUP BY, second table", `SELECT AVG(cons) FROM Power P, Consumer C GROUP BY C.district`},
		{"HAVING", `SELECT COUNT(*) FROM Consumer GROUP BY cid HAVING MIN(district) > 'A'`},
	} {
		t.Run(c.pos, func(t *testing.T) {
			if err := p.Authorize(cred("r"), parse(c.q)); !errors.Is(err, ErrDenied) {
				t.Errorf("denied column allowed in %q: %v", c.q, err)
			}
		})
	}
	for _, q := range []string{
		`SELECT cid FROM Consumer WHERE accommodation = 'flat'`,
		`SELECT AVG(cons) FROM Power GROUP BY period HAVING MIN(cons) > 1`,
		`SELECT COUNT(*) FROM Consumer`,
	} {
		if err := p.Authorize(cred("r"), parse(q)); err != nil {
			t.Errorf("legal query %q denied: %v", q, err)
		}
	}
	// A scalar function once hid its argument from this check; the
	// dialect no longer has one to hide behind.
	for _, q := range []string{
		`SELECT UPPER(district) FROM Consumer`,
		`SELECT cid FROM Consumer WHERE LENGTH(district) > 3`,
	} {
		if _, err := sqlparse.Parse(q); err == nil {
			t.Errorf("%q parses", q)
		}
	}
}

// alien is an expression node the check does not know: it fails closed,
// whatever the node holds.
type alien struct{ *sqlparse.ColumnRef }

func TestAuthorizeUnknownExpressionFailsClosed(t *testing.T) {
	p := &Policy{Rules: []Rule{{Role: "r", DeniedColumns: []string{"district"}}}}
	stmt := parse(`SELECT cid FROM Consumer WHERE cid = 1`)
	stmt.Where.(*sqlparse.BinaryExpr).Left = alien{&sqlparse.ColumnRef{Name: "cid"}}
	if err := p.Authorize(cred("r"), stmt); !errors.Is(err, ErrDenied) {
		t.Fatalf("unknown node allowed: %v", err)
	}
}

// TestVerifyTable: the pooled signer must take the decisions, and return
// the error strings, of a fresh hmac.New per call — serially and from
// eight goroutines sharing the authority (the fleet's devices do). The
// signature is pinned to the bytes the unpooled Issue produced.
func TestVerifyTable(t *testing.T) {
	a := issuer()
	stamp := time.Unix(1700000000, 0).UTC()
	valid := a.Issue("edf", []string{"energy-analyst", "auditor"}, stamp)
	const golden = "dc6c4674a833934cf1f37239c2791f7287878e2c244ff86d52fb4d2b6b6b445d"
	if got := hex.EncodeToString(valid.Signature); got != golden {
		t.Fatalf("signature = %s, want %s", got, golden)
	}
	forged := valid
	forged.Signature = append([]byte(nil), valid.Signature...)
	forged.Signature[31] ^= 0x80
	roles := valid
	roles.Roles = []string{"energy-analyst", "admin"}
	const badSig = "accessctl: invalid credential signature"
	cases := []struct {
		name string
		c    Credential
		at   time.Time
		want string // "" = accepted
	}{
		{"valid", valid, stamp.Add(-time.Hour), ""},
		{"valid at the expiry instant", valid, stamp, ""},
		{"forged signature", forged, stamp.Add(-time.Hour), badSig},
		{"empty signature", Credential{QuerierID: "edf", Expiry: stamp}, stamp, badSig},
		{"altered role set", roles, stamp.Add(-time.Hour), badSig},
		{"expired", valid, stamp.Add(time.Second), "accessctl: credential expired at 2023-11-14T22:13:20Z"},
		{"forged and expired", forged, stamp.Add(time.Second), badSig},
	}
	check := func(report func(string, ...any)) {
		for _, tc := range cases {
			got := ""
			if err := a.Verify(tc.c, tc.at); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				report("%s: Verify = %q, want %q", tc.name, got, tc.want)
			}
		}
	}
	check(t.Fatalf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				check(t.Errorf)
			}
		}()
	}
	wg.Wait()
}
