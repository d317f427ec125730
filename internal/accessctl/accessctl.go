// Package accessctl implements the access-control layer each TDS enforces
// before answering a query (Section 3.1, "Access control enforcement").
//
// The policy protecting local data is defined by the producer organism,
// the legislator or a consumer association, and installed in the TDS (at
// burn time or downloaded). The querier attaches a credential signed by an
// authority; each TDS verifies the signature, checks expiry and evaluates
// the policy against the query before contributing anything but a dummy
// tuple.
package accessctl

import (
	"crypto/hmac"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Credential identifies a querier and the roles an authority granted it.
// Credentials travel in cleartext next to the encrypted query (the SSI may
// see them; they contain no personal data).
type Credential struct {
	QuerierID string
	Roles     []string
	Expiry    time.Time
	Signature []byte
}

// signingPayload returns the byte string covered by the signature.
func (c *Credential) signingPayload() []byte {
	var b []byte
	b = append(b, "cred/v1\x00"...)
	b = append(b, c.QuerierID...)
	b = append(b, 0)
	for _, r := range c.Roles {
		b = append(b, r...)
		b = append(b, 0)
	}
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(c.Expiry.Unix()))
	return append(b, ts[:]...)
}

// HasRole reports whether the credential carries the role.
func (c *Credential) HasRole(role string) bool {
	for _, r := range c.Roles {
		if strings.EqualFold(r, role) {
			return true
		}
	}
	return false
}

// Authority signs querier credentials. Its verification key is installed in
// every TDS alongside the access-control policy. Safe for concurrent use:
// every device of a fleet verifies, on every query, through the one.
type Authority struct {
	macs *tdscrypto.MACPool // HMAC states keyed when the authority is built
}

// NewAuthority creates an authority from its signing key.
func NewAuthority(key tdscrypto.Key) *Authority {
	return &Authority{macs: tdscrypto.NewMACPool(key)}
}

// sign computes the authority's signature over the credential.
func (a *Authority) sign(c *Credential) []byte {
	mac := a.macs.Get()
	mac.Write(c.signingPayload())
	sig := mac.Sum(nil)
	a.macs.Put(mac)
	return sig
}

// Issue returns a signed credential for the querier.
func (a *Authority) Issue(querierID string, roles []string, expiry time.Time) Credential {
	c := Credential{QuerierID: querierID, Roles: append([]string(nil), roles...), Expiry: expiry}
	c.Signature = a.sign(&c)
	return c
}

// Signed reports whether this authority signed the credential as it stands.
// It asks no clock, so a fleet can take it once per post; each device
// checks the expiry against its own clock.
func (a *Authority) Signed(c *Credential) bool { return hmac.Equal(a.sign(c), c.Signature) }

// Rule grants a role access to tables under restrictions. An empty Tables
// list means every table. AggregateOnly is the paper's privacy workhorse:
// the querier may only see aggregate results, never identifying tuples.
type Rule struct {
	Role          string
	Tables        []string // empty = all tables
	AggregateOnly bool
	DeniedColumns []string // table.column or bare column names
}

// allowsTable reports whether the rule covers the table.
func (r *Rule) allowsTable(name string) bool {
	if len(r.Tables) == 0 {
		return true
	}
	for _, t := range r.Tables {
		if strings.EqualFold(t, name) {
			return true
		}
	}
	return false
}

// deniesColumn reports whether the rule forbids referencing the column.
// table is the resolved table name of the reference ("" when the reference
// is unqualified); fromTables lists every FROM table of the query so that
// an unqualified reference is matched conservatively against all of them.
func (r *Rule) deniesColumn(table, column string, fromTables []string) bool {
	for _, d := range r.DeniedColumns {
		if i := strings.IndexByte(d, '.'); i >= 0 {
			if !strings.EqualFold(d[i+1:], column) {
				continue
			}
			if table != "" {
				if strings.EqualFold(d[:i], table) {
					return true
				}
				continue
			}
			for _, ft := range fromTables {
				if strings.EqualFold(d[:i], ft) {
					return true
				}
			}
			continue
		}
		if strings.EqualFold(d, column) {
			return true
		}
	}
	return false
}

// Policy is the set of rules installed in a TDS.
type Policy struct {
	Rules []Rule
}

// ErrDenied is returned when no rule authorizes the query. Per the
// protocol, the TDS then contributes a dummy tuple rather than an error so
// the SSI learns nothing (step 4' of Fig. 2); the error drives that branch.
var ErrDenied = errors.New("accessctl: access denied")

// Authorize decides whether a credential may run the statement. The query
// is allowed when at least one applicable rule authorizes it entirely —
// table scope, aggregate restriction and column denials are evaluated per
// rule, never combined across rules. Combining would let a credential
// holding an aggregate-only rule over all tables and an identifying rule
// over one table run identifying queries over every table, which neither
// rule intends.
func (p *Policy) Authorize(c Credential, stmt *sqlparse.SelectStmt) error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("%w: empty policy", ErrDenied)
	}
	var applicable []*Rule
	for i := range p.Rules {
		if c.HasRole(p.Rules[i].Role) {
			applicable = append(applicable, &p.Rules[i])
		}
	}
	if len(applicable) == 0 {
		return fmt.Errorf("%w: no applicable role", ErrDenied)
	}
	var firstReason error
	for _, r := range applicable {
		if err := r.authorize(stmt); err == nil {
			return nil
		} else if firstReason == nil {
			firstReason = err
		}
	}
	return firstReason
}

// authorize checks whether this single rule allows the whole statement.
func (r *Rule) authorize(stmt *sqlparse.SelectStmt) error {
	for _, ref := range stmt.From {
		if !r.allowsTable(ref.Name) {
			return fmt.Errorf("%w: table %q", ErrDenied, ref.Name)
		}
	}
	if r.AggregateOnly && !stmt.IsAggregate() {
		return fmt.Errorf("%w: role is restricted to aggregate queries", ErrDenied)
	}
	// Aliases in FROM resolve to table names before matching denials.
	aliasToTable := make(map[string]string, len(stmt.From))
	fromTables := make([]string, 0, len(stmt.From))
	for _, ref := range stmt.From {
		fromTables = append(fromTables, ref.Name)
		aliasToTable[strings.ToLower(ref.Name)] = ref.Name
		if ref.Alias != "" {
			aliasToTable[strings.ToLower(ref.Alias)] = ref.Name
		}
	}
	var denied error
	visit := func(e sqlparse.Expr) bool {
		if denied != nil {
			return false
		}
		switch n := e.(type) {
		case *sqlparse.ColumnRef:
			table := ""
			if n.Table != "" {
				table = aliasToTable[strings.ToLower(n.Table)]
				if table == "" {
					table = n.Table
				}
			}
			if r.deniesColumn(table, n.Name, fromTables) {
				denied = fmt.Errorf("%w: column %q", ErrDenied, n)
			}
		case *sqlparse.Literal, *sqlparse.BinaryExpr, *sqlparse.NotExpr, *sqlparse.InExpr,
			*sqlparse.BetweenExpr, *sqlparse.IsNullExpr, *sqlparse.FuncCall:
		default:
			// A node this check does not know may hide a column: deny.
			denied = fmt.Errorf("%w: unchecked expression %s", ErrDenied, e)
		}
		return denied == nil
	}
	for _, it := range stmt.Select {
		if it.Star {
			// Without the schema, * may name any column: a rule that
			// denies one denies *.
			if len(r.DeniedColumns) > 0 {
				return fmt.Errorf("%w: * under column denials", ErrDenied)
			}
			continue
		}
		sqlparse.Walk(it.Expr, visit)
	}
	sqlparse.Walk(stmt.Where, visit)
	for _, g := range stmt.GroupBy {
		sqlparse.Walk(g, visit)
	}
	sqlparse.Walk(stmt.Having, visit)
	return denied
}
