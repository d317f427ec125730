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
// before anything leaves the secure device. The stored rows are read in
// place and the scan's own buffers come from the plan's free list, so a
// warm scan allocates nothing.
func (p *Plan) ScanLocal(db *storage.LocalDB, fn func(row storage.Row) error) error {
	s := p.begin(db)
	defer p.end(s)
	return s.join(p, 0, fn)
}

// begin takes an idle scan from the plan's free list, or makes one, and
// points each FROM level at its table's rows as of the call.
func (p *Plan) begin(db *storage.LocalDB) *scan {
	var s *scan
	select {
	case s = <-p.scans:
	default:
		s = &scan{scope: scope{rows: make([]storage.Row, len(p.tables))},
			tables: make([][]storage.Row, len(p.tables)), out: make(storage.Row, 0, len(p.out))}
	}
	for i, tb := range p.tables {
		s.tables[i] = db.TableRows(tb.def)
	}
	return s
}

// end returns s to the free list.
func (p *Plan) end(s *scan) {
	clear(s.rows) // no stored row outlives the scan
	clear(s.tables)
	select {
	case p.scans <- s:
	default: // as many idle scans are kept as there are cores
	}
}

// scan is one ScanLocal's state: the current row of each FROM level, the
// level's rows as of the call, and the output row.
type scan struct {
	scope
	tables [][]storage.Row
	out    storage.Row
}

// join binds each row of a FROM level in turn, and once every level's row
// is bound tests WHERE and emits the output row: a nested-loop join, the
// right tool over one household's small tables. Stored rows are
// immutable, so nothing is copied.
func (s *scan) join(p *Plan, level int, fn func(row storage.Row) error) error {
	if level < len(s.tables) {
		for _, r := range s.tables[level] {
			s.rows[level] = r
			if err := s.join(p, level+1, fn); err != nil {
				return err
			}
		}
		return nil
	}
	if p.where != nil {
		v, err := p.where(&s.scope)
		if err != nil {
			return fmt.Errorf("sqlexec: WHERE: %w", err)
		}
		if v.IsNull() || !v.AsBool() {
			return nil
		}
	}
	s.out = s.out[:0]
	for _, f := range p.out {
		v, err := f(&s.scope)
		if err != nil {
			return err
		}
		s.out = append(s.out, v)
	}
	return fn(s.out)
}

// CollectLocal is ScanLocal with every row cloned into one array, first
// sized for the join's product, capped lest a selective WHERE reserve it all.
func (p *Plan) CollectLocal(db *storage.LocalDB) ([]storage.Row, error) {
	s := p.begin(db)
	defer p.end(s)
	var flat []storage.Value
	n, bound := 0, 1
	for _, rows := range s.tables {
		bound = min(bound*len(rows), 512)
	}
	err := s.join(p, 0, func(row storage.Row) error {
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
