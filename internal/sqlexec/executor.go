package sqlexec

import (
	"fmt"
	"slices"

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
// place and the scan runs in s, the caller's (nil: a fresh one), so a scan
// in a warm Scan allocates nothing.
func (p *Plan) ScanLocal(s *Scan, db *storage.LocalDB, fn func(row storage.Row) error) error {
	if s == nil {
		s = new(Scan)
	}
	s.bind(p, db)
	return s.join(p, 0, fn)
}

// Scan is one scan's state: each FROM level's rows and current row, and
// the output row, held in the Scan itself for up to four FROM tables and
// eight columns. A worker keeps one for every ScanLocal it runs, of any
// plan; it is not safe for concurrent use, nor to copy once used.
type Scan struct {
	scope
	tables [][]storage.Row
	out    storage.Row
	inline struct {
		rows   [4]storage.Row
		tables [4][]storage.Row
		out    [8]storage.Value
	}
}

// bind sizes s for p and points each FROM level at its table's rows, all
// read at one instant of db.
func (s *Scan) bind(p *Plan, db *storage.LocalDB) {
	if s.tables == nil {
		s.rows, s.tables, s.out = s.inline.rows[:0], s.inline.tables[:0], s.inline.out[:0]
	}
	s.rows = slices.Grow(s.rows[:0], len(p.defs))[:len(p.defs)]
	s.tables, s.out = db.TableRows(s.tables[:0], p.defs...), slices.Grow(s.out[:0], len(p.out))
}

// join binds each row of a FROM level in turn, and once every level's row
// is bound tests WHERE and emits the output row: a nested-loop join, the
// right tool over one household's small tables. Stored rows are
// immutable, so nothing is copied.
func (s *Scan) join(p *Plan, level int, fn func(row storage.Row) error) error {
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
	s := new(Scan)
	s.bind(p, db)
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
		if err := p.ScanLocal(nil, db, fn); err != nil {
			return nil, err
		}
	}
	if p.IsAggregate() {
		return acc.Finalize()
	}
	return res, nil
}
