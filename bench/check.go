package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/trustedcells/tcq/internal/sqlexec"
	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// expectation is the one right answer of a ring slot.
type expectation struct {
	rows []storage.Row
	// tq is set for churned slots only: their reference is a solo run of
	// the same QueryID, whose simulated T_Q must repeat exactly.
	tq    time.Duration
	hasTQ bool
}

// expectations computes every ring slot's reference answer: for a
// fault-free slot the plaintext result of sqlexec.Standalone over the
// generated databases; for a churned slot a solo Engine.Execute of the
// same QueryID (churn legitimately loses deposits, but the loss is a
// pure function of the seed and the QueryID).
func expectations(fx *fixture, slots int) ([]expectation, error) {
	dbs := fx.databases()
	bySQL := map[string][]storage.Row{}
	out := make([]expectation, slots)
	for i := range out {
		req := fx.request(i)
		if fx.churned(i) {
			resp, err := fx.eng.Execute(context.Background(), req)
			if err != nil {
				return nil, fmt.Errorf("solo reference %s: %w", req.QueryID, err)
			}
			out[i] = expectation{rows: resp.Result.Rows, tq: resp.Metrics.TQ, hasTQ: true}
			continue
		}
		rows, ok := bySQL[req.SQL]
		if !ok {
			stmt, err := sqlparse.Parse(req.SQL)
			if err != nil {
				return nil, err
			}
			plan, err := sqlexec.Compile(stmt, fx.eng.Schema())
			if err != nil {
				return nil, err
			}
			res, err := sqlexec.Standalone(plan, dbs...)
			if err != nil {
				return nil, err
			}
			rows = res.Rows
			bySQL[req.SQL] = rows
		}
		out[i] = expectation{rows: rows}
	}
	return out, nil
}

// check reports why an answer is wrong, or nil.
func (e *expectation) check(rows []storage.Row, tq time.Duration) error {
	if err := sameRows(rows, e.rows); err != nil {
		return err
	}
	if e.hasTQ && tq != e.tq {
		return fmt.Errorf("T_Q %v, solo run %v", tq, e.tq)
	}
	return nil
}

// sameRows compares two results as multisets; floats may differ by 1e-9
// relative, because the protocols sum in a different order than the
// reference does.
func sameRows(got, want []storage.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d: %d columns, want %d", i, len(g[i]), len(w[i]))
		}
		for c := range g[i] {
			if !sameValue(g[i][c], w[i][c]) {
				return fmt.Errorf("row %d: %v, want %v", i, g[i], w[i])
			}
		}
	}
	return nil
}

func sortedRows(rows []storage.Row) []storage.Row {
	s := append([]storage.Row(nil), rows...)
	sort.SliceStable(s, func(i, j int) bool {
		for c := 0; c < len(s[i]) && c < len(s[j]); c++ {
			// Values of one column share a kind, so Compare cannot fail.
			if cmp, _ := storage.Compare(s[i][c], s[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return len(s[i]) < len(s[j])
	})
	return s
}

func sameValue(a, b storage.Value) bool {
	if a.Kind() == storage.KindFloat && b.Kind() == storage.KindFloat {
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Kind() == b.Kind() && storage.Equal(a, b)
}
