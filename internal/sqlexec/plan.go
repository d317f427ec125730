// Package sqlexec executes the dialect locally inside a TDS and provides
// the partial-aggregation machinery used by the distributed protocols.
//
// Each TDS compiles the (decrypted) query against the common schema into a
// Plan, evaluates it over its LocalDB — including internal joins between
// its own tables — and emits either result tuples (Select-From-Where
// queries, Section 3.2) or collection tuples (grouping values + aggregate
// inputs) feeding the aggregation phase (Section 4).
//
// Partial aggregates are mergeable (the ⊕ of Fig. 4): distributive
// (COUNT, SUM, MIN, MAX), algebraic (AVG as sum+count) and holistic
// (MEDIAN, COUNT DISTINCT) functions all expose Add, Merge, Result and a
// deterministic wire encoding so that any TDS can continue any other TDS's
// work on a partition.
package sqlexec

import (
	"fmt"
	"strings"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// tableBinding places one FROM entry inside the combined row.
type tableBinding struct {
	ref    sqlparse.TableRef
	def    *storage.TableDef
	offset int // first column position in the combined row
}

// colBinding is a resolved column reference.
type colBinding struct {
	pos int // position in the combined row
}

// AggSpec is one compiled aggregate function application.
type AggSpec struct {
	Func     sqlparse.AggFunc
	Arg      *sqlparse.ColumnRef // nil for COUNT(*)
	Star     bool
	Distinct bool
}

// String renders the spec like the original SQL.
func (s AggSpec) String() string {
	inner := "*"
	if !s.Star {
		inner = s.Arg.String()
		if s.Distinct {
			inner = "DISTINCT " + inner
		}
	}
	return string(s.Func) + "(" + inner + ")"
}

// Plan is a query compiled against the common schema. A Plan is immutable
// and safe for concurrent use by many TDS goroutines.
type Plan struct {
	Stmt   *sqlparse.SelectStmt
	Schema *storage.Schema

	tables []tableBinding
	width  int // combined row width
	// colPos holds every column reference of the statement, bound to its
	// combined-row position by Compile; evaluation only looks it up.
	colPos map[*sqlparse.ColumnRef]int

	// Aggregate query artifacts (empty for plain SFW):
	GroupCols []colBinding
	Aggs      []AggSpec
	aggIndex  map[*sqlparse.FuncCall]int

	// Output column names, in SELECT order (Star expands).
	OutputNames []string
}

// IsAggregate reports whether the plan needs the aggregation phase.
func (p *Plan) IsAggregate() bool { return p.Stmt.IsAggregate() }

// CollectionWidth is the arity of collection tuples emitted during the
// collection phase of aggregate queries: |GROUP BY| + one input per
// aggregate.
func (p *Plan) CollectionWidth() int { return len(p.GroupCols) + len(p.Aggs) }

// Compile type-checks and binds a statement against the schema.
func Compile(stmt *sqlparse.SelectStmt, schema *storage.Schema) (*Plan, error) {
	p := &Plan{Stmt: stmt, Schema: schema, aggIndex: make(map[*sqlparse.FuncCall]int),
		colPos: make(map[*sqlparse.ColumnRef]int)}
	seenAlias := make(map[string]bool)
	for _, ref := range stmt.From {
		def, ok := schema.Table(ref.Name)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown table %q", ref.Name)
		}
		key := strings.ToLower(ref.Alias)
		if key == "" {
			key = strings.ToLower(ref.Name)
		}
		if seenAlias[key] {
			return nil, fmt.Errorf("sqlexec: duplicate table name/alias %q", key)
		}
		seenAlias[key] = true
		p.tables = append(p.tables, tableBinding{ref: ref, def: def, offset: p.width})
		p.width += len(def.Columns)
	}

	// Resolve every column reference up front so execution cannot fail on
	// binding.
	if err := p.checkExprColumns(stmt.Where); err != nil {
		return nil, fmt.Errorf("sqlexec: WHERE: %w", err)
	}
	for _, g := range stmt.GroupBy {
		b, err := p.resolve(g)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: GROUP BY: %w", err)
		}
		p.GroupCols = append(p.GroupCols, b)
	}

	if stmt.IsAggregate() {
		for _, call := range stmt.Aggregates() {
			if !call.Star {
				if _, err := p.resolve(call.Arg); err != nil {
					return nil, fmt.Errorf("sqlexec: %s: %w", call, err)
				}
			}
			p.aggIndex[call] = len(p.Aggs)
			p.Aggs = append(p.Aggs, AggSpec{
				Func: call.Func, Arg: call.Arg, Star: call.Star, Distinct: call.Distinct,
			})
		}
		// Non-aggregated SELECT/HAVING columns must be grouping columns.
		for _, it := range stmt.Select {
			if it.Star {
				return nil, fmt.Errorf("sqlexec: SELECT * is invalid in an aggregate query")
			}
			if err := p.checkGroupedColumns(it.Expr); err != nil {
				return nil, err
			}
		}
		if err := p.checkGroupedColumns(stmt.Having); err != nil {
			return nil, err
		}
	} else {
		for _, it := range stmt.Select {
			if it.Star {
				continue
			}
			if err := p.checkExprColumns(it.Expr); err != nil {
				return nil, fmt.Errorf("sqlexec: SELECT: %w", err)
			}
		}
	}

	for _, it := range stmt.Select {
		if it.Star {
			for _, tb := range p.tables {
				for _, c := range tb.def.Columns {
					p.OutputNames = append(p.OutputNames, c.Name)
				}
			}
			continue
		}
		p.OutputNames = append(p.OutputNames, it.Name())
	}
	return p, nil
}

// resolve binds a column reference to a combined-row position and records
// the binding. It runs at compile time only.
func (p *Plan) resolve(ref *sqlparse.ColumnRef) (colBinding, error) {
	var found []colBinding
	for _, tb := range p.tables {
		if ref.Table != "" &&
			!strings.EqualFold(ref.Table, tb.ref.Alias) &&
			!(tb.ref.Alias == "" && strings.EqualFold(ref.Table, tb.ref.Name)) &&
			!strings.EqualFold(ref.Table, tb.ref.Name) {
			continue
		}
		if i := tb.def.ColumnIndex(ref.Name); i >= 0 {
			found = append(found, colBinding{pos: tb.offset + i})
		}
	}
	switch len(found) {
	case 0:
		return colBinding{}, fmt.Errorf("unknown column %q", ref)
	case 1:
		p.colPos[ref] = found[0].pos
		return found[0], nil
	default:
		return colBinding{}, fmt.Errorf("ambiguous column %q", ref)
	}
}

// checkExprColumns resolves all column references inside e.
func (p *Plan) checkExprColumns(e sqlparse.Expr) error {
	var err error
	sqlparse.Walk(e, func(n sqlparse.Expr) bool {
		if c, ok := n.(*sqlparse.ColumnRef); ok && err == nil {
			_, err = p.resolve(c)
		}
		return err == nil
	})
	return err
}

// checkGroupedColumns verifies that bare columns in an aggregate query's
// SELECT/HAVING expression appear in GROUP BY (aggregate arguments are
// exempt).
func (p *Plan) checkGroupedColumns(e sqlparse.Expr) error {
	var err error
	sqlparse.Walk(e, func(n sqlparse.Expr) bool {
		if err != nil {
			return false
		}
		c, ok := n.(*sqlparse.ColumnRef)
		if !ok {
			_, agg := n.(*sqlparse.FuncCall)
			return !agg // an aggregate's argument is aggregated
		}
		b, rerr := p.resolve(c)
		if rerr != nil {
			err = fmt.Errorf("sqlexec: %w", rerr)
			return false
		}
		for _, g := range p.GroupCols {
			if g.pos == b.pos {
				return true
			}
		}
		err = fmt.Errorf("sqlexec: column %q must appear in GROUP BY or inside an aggregate", c)
		return false
	})
	return err
}
