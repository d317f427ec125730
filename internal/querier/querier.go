// Package querier implements the query issuer of the protocol: it posts
// encrypted queries with signed credentials to the SSI and decrypts the
// final result. Per the threat model, the querier gains access only to the
// final result of authorized queries, never to raw data (Section 2.2) —
// it holds k1 but not k2, so intermediate results relayed by the SSI are
// opaque to it even if it colludes with the SSI.
package querier

import (
	"fmt"
	"slices"

	"github.com/trustedcells/tcq/internal/accessctl"
	"github.com/trustedcells/tcq/internal/protocol"
	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
	"github.com/trustedcells/tcq/internal/tdscrypto"
)

// Querier is one query issuer.
type Querier struct {
	ID         string
	Credential accessctl.Credential

	k1     *tdscrypto.Suite
	schema *storage.Schema
}

// New creates a querier holding k1, its signed credential, and the common
// schema (public information — the schema is defined by the application
// provider, not secret).
func New(id string, k1 tdscrypto.Key, cred accessctl.Credential, schema *storage.Schema) (*Querier, error) {
	suite, err := tdscrypto.NewSuite(k1)
	if err != nil {
		return nil, err
	}
	return &Querier{ID: id, Credential: cred, k1: suite, schema: schema}, nil
}

// BuildPost parses the SQL (to lift the SIZE clause into cleartext and
// fail fast on bad queries), encrypts the query text under k1 and
// assembles the querybox post.
func (q *Querier) BuildPost(queryID, sql string, kind protocol.Kind, params protocol.Params) (*protocol.QueryPost, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("querier %s: %w", q.ID, err)
	}
	if _, err := sqlexec.Compile(stmt, q.schema); err != nil {
		return nil, fmt.Errorf("querier %s: %w", q.ID, err)
	}
	return protocol.NewQueryPost(queryID, kind, params, sql, q.k1, q.Credential, stmt.Size)
}

// DecryptResult opens the final tuples (step 13 of Fig. 2) and assembles
// the query result with its output column names.
func (q *Querier) DecryptResult(post *protocol.QueryPost, tuples []protocol.WireTuple) (*sqlexec.Result, error) {
	stmt, err := post.OpenQuery(q.k1)
	if err != nil {
		return nil, fmt.Errorf("querier %s: %w", q.ID, err)
	}
	plan, err := sqlexec.Compile(stmt, q.schema)
	if err != nil {
		return nil, fmt.Errorf("querier %s: %w", q.ID, err)
	}
	res := &sqlexec.Result{Columns: plan.OutputNames}
	var dec storage.RowDecoder // one for the run: equal texts are shared
	for i, w := range tuples {
		pt, err := q.k1.Decrypt(w.Ciphertext, post.AAD())
		if err != nil {
			return nil, fmt.Errorf("querier %s: tuple %d: %w", q.ID, i, err)
		}
		marker, body, err := protocol.DecodePayload(pt)
		if err != nil {
			return nil, fmt.Errorf("querier %s: tuple %d: %w", q.ID, i, err)
		}
		if marker != protocol.MarkerTrue {
			continue
		}
		row, n, err := dec.Decode(body)
		if err != nil || n != len(body) {
			return nil, fmt.Errorf("querier %s: tuple %d: bad row (%v)", q.ID, i, err)
		}
		res.Rows = append(res.Rows, row.Clone())
	}
	res.Rows = slices.Clone(res.Rows) // the answer outlives the run: no append slack
	return res, nil
}
