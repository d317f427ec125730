package sqlexec

import (
	"fmt"

	"github.com/trustedcells/tcq/internal/storage"
)

// ScanLocal performs the collection-phase work of one TDS: it evaluates
// FROM (with internal joins) and WHERE, and hands fn, in scan order,
//
//   - for plain Select-From-Where queries: each projected result tuple;
//   - for aggregate queries: each collection tuple — grouping values followed
//     by one raw input value per aggregate function.
//
// The row is the scan's one buffer, overwritten by the next: fn must Clone
// what it keeps. The caller (the TDS protocol layer) encrypts each row
// before anything leaves the secure device.
func (p *Plan) ScanLocal(db *storage.LocalDB, fn func(row storage.Row) error) error {
	agg, width := p.IsAggregate(), len(p.OutputNames)
	if agg {
		width = p.CollectionWidth()
	}
	row := make(storage.Row, 0, width)
	ctx := &evalContext{plan: p}
	return p.scanJoin(db, func(combined storage.Row) error {
		ctx.row = combined
		keep, err := ctx.predicateTrue(p.Stmt.Where)
		if err != nil {
			return fmt.Errorf("sqlexec: WHERE: %w", err)
		}
		if !keep {
			return nil
		}
		row = row[:0]
		if agg {
			for _, g := range p.GroupCols {
				row = append(row, combined[g.pos])
			}
			for _, spec := range p.Aggs {
				if spec.Star {
					row = append(row, storage.Int(1))
					continue
				}
				row = append(row, combined[p.colPos[spec.Arg]])
			}
			return fn(row)
		}
		for _, it := range p.Stmt.Select {
			if it.Star {
				row = append(row, combined...)
				continue
			}
			v, err := ctx.evalExpr(it.Expr)
			if err != nil {
				return fmt.Errorf("sqlexec: SELECT %s: %w", it.Expr, err)
			}
			row = append(row, v)
		}
		return fn(row)
	})
}

// CollectLocal is ScanLocal with every row cloned into one array, first
// sized for the join's product, capped lest a selective WHERE reserve it all.
func (p *Plan) CollectLocal(db *storage.LocalDB) ([]storage.Row, error) {
	var flat []storage.Value
	n, bound := 0, 1
	for _, tb := range p.tables {
		bound = min(bound*db.Count(tb.def.Name), 512)
	}
	err := p.ScanLocal(db, func(row storage.Row) error {
		if flat == nil {
			flat = make([]storage.Value, 0, bound*len(row))
		}
		flat, n = append(flat, row...), n+1
		return nil
	})
	if err != nil || n == 0 {
		return nil, err
	}
	out, w := make([]storage.Row, n), len(flat)/n
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return out, nil
}

// scanJoin enumerates the cartesian product of the FROM tables of the
// local database, invoking fn with each combined row. WHERE predicates
// restrict it to the intended internal join. TDS databases are small (one
// household's data), so a nested-loop join is the right tool. The tables
// are read in place, as of the call: stored rows are immutable, so there
// is nothing to copy.
func (p *Plan) scanJoin(db *storage.LocalDB, fn func(combined storage.Row) error) error {
	tables := make([][]storage.Row, len(p.tables))
	for i, tb := range p.tables {
		rows, err := db.Rows(tb.def.Name)
		if err != nil {
			return err
		}
		tables[i] = rows
	}
	combined := make(storage.Row, p.width)
	var rec func(level int) error
	rec = func(level int) error {
		if level == len(tables) {
			return fn(combined)
		}
		tb := p.tables[level]
		for _, r := range tables[level] {
			copy(combined[tb.offset:], r)
			if err := rec(level + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

// Standalone executes the query over the union of the given local
// databases in plaintext, as a single trusted server would. It is the
// reference implementation the distributed protocols are tested against:
// any protocol run must produce exactly this result.
func Standalone(p *Plan, dbs ...*storage.LocalDB) (*Result, error) {
	res, acc := &Result{Columns: p.OutputNames}, NewAccumulator(p)
	fn := acc.AddCollectionRow // folds the row's values, keeps none of its storage
	if !p.IsAggregate() {
		fn = func(row storage.Row) error {
			res.Rows = append(res.Rows, row.Clone())
			return nil
		}
	}
	for _, db := range dbs {
		if err := p.ScanLocal(db, fn); err != nil {
			return nil, err
		}
	}
	if p.IsAggregate() {
		return acc.Finalize()
	}
	return res, nil
}
