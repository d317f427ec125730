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
// (MEDIAN, COUNT DISTINCT) functions all expose Add, Result and a
// deterministic wire encoding that any TDS can fold into its own state,
// so that it can continue any other TDS's work on a partition.
package sqlexec

import (
	"fmt"
	"strings"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// colBinding is a resolved column reference: the FROM level that binds it
// and the column's position in that level's rows.
type colBinding struct {
	level, col int
}

// read is the compiled form of the column while scanning.
func (b colBinding) read(s *scope) (storage.Value, error) { return s.rows[b.level][b.col], nil }

// AggSpec is one compiled aggregate function application.
type AggSpec struct {
	Func     sqlparse.AggFunc
	Arg      *sqlparse.ColumnRef // nil for COUNT(*)
	Star     bool
	Distinct bool
}

// Plan is a query compiled against the common schema. A Plan is immutable
// and safe for concurrent use by many TDS goroutines.
type Plan struct {
	Stmt   *sqlparse.SelectStmt
	Schema *storage.Schema

	// The FROM entries, each scanned at its level of the nested loop.
	refs []sqlparse.TableRef
	defs []*storage.TableDef

	// Aggregate query artifacts (empty for plain SFW):
	GroupCols []colBinding
	Aggs      []AggSpec

	// Output column names, in SELECT order (Star expands).
	OutputNames []string

	// The compiled query. Every column is read at a position fixed by
	// Compile: (FROM level, column) while scanning, a grouping value's or
	// an aggregate's index after grouping.
	where  evalFn   // nil without WHERE; tested once every FROM level's row is bound
	out    []evalFn // a scan's output row: the SELECT list, or a collection tuple
	having evalFn   // true without HAVING
	result []evalFn // an aggregate query's SELECT list over one group
}

// IsAggregate reports whether the plan needs the aggregation phase.
func (p *Plan) IsAggregate() bool { return p.Stmt.IsAggregate() }

// CollectionWidth is the arity of collection tuples emitted during the
// collection phase of aggregate queries: |GROUP BY| + one input per
// aggregate.
func (p *Plan) CollectionWidth() int { return len(p.GroupCols) + len(p.Aggs) }

// Compile type-checks and binds a statement against the schema, and
// turns each of its expressions into an evalFn.
func Compile(stmt *sqlparse.SelectStmt, schema *storage.Schema) (*Plan, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlexec: no FROM table")
	}
	p := &Plan{Stmt: stmt, Schema: schema}
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
		p.refs, p.defs = append(p.refs, ref), append(p.defs, def)
	}

	// Every column is resolved here, so execution cannot fail on binding.
	if stmt.Where != nil {
		var err error
		if p.where, err = (&compiler{p: p}).expr(stmt.Where); err != nil {
			return nil, fmt.Errorf("sqlexec: WHERE: %w", err)
		}
	}
	for _, g := range stmt.GroupBy {
		b, err := p.resolve(g)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: GROUP BY: %w", err)
		}
		p.GroupCols = append(p.GroupCols, b)
		p.out = append(p.out, b.read)
	}

	if stmt.IsAggregate() {
		grouped := &compiler{p: p, aggs: make(map[*sqlparse.FuncCall]int)}
		for _, call := range stmt.Aggregates() {
			in := constant(storage.Int(1)) // COUNT(*) counts rows
			if !call.Star {
				b, err := p.resolve(call.Arg)
				if err != nil {
					return nil, fmt.Errorf("sqlexec: %s: %w", call, err)
				}
				in = b.read
			}
			grouped.aggs[call] = len(p.Aggs)
			p.Aggs = append(p.Aggs, AggSpec{
				Func: call.Func, Arg: call.Arg, Star: call.Star, Distinct: call.Distinct,
			})
			p.out = append(p.out, in)
		}
		// Non-aggregated SELECT/HAVING columns must be grouping columns.
		for _, it := range stmt.Select {
			if it.Star {
				return nil, fmt.Errorf("sqlexec: SELECT * is invalid in an aggregate query")
			}
			f, err := grouped.expr(it.Expr)
			if err != nil {
				return nil, fmt.Errorf("sqlexec: %w", err)
			}
			p.result = append(p.result, f)
		}
		p.having = constant(storage.Bool(true))
		if stmt.Having != nil {
			f, err := grouped.expr(stmt.Having)
			if err != nil {
				return nil, fmt.Errorf("sqlexec: %w", err)
			}
			p.having = f
		}
	} else {
		for _, it := range stmt.Select {
			if it.Star {
				for level, def := range p.defs {
					for col := range def.Columns {
						p.out = append(p.out, colBinding{level, col}.read)
					}
				}
				continue
			}
			f, err := (&compiler{p: p}).expr(it.Expr)
			if err != nil {
				return nil, fmt.Errorf("sqlexec: SELECT: %w", err)
			}
			p.out = append(p.out, f)
		}
	}

	for _, it := range stmt.Select {
		if it.Star {
			for _, def := range p.defs {
				for _, c := range def.Columns {
					p.OutputNames = append(p.OutputNames, c.Name)
				}
			}
			continue
		}
		p.OutputNames = append(p.OutputNames, it.Name())
	}
	return p, nil
}

// resolve binds a column reference to its FROM level and column. It runs
// at compile time only.
func (p *Plan) resolve(ref *sqlparse.ColumnRef) (colBinding, error) {
	var found []colBinding
	for level, from := range p.refs {
		if ref.Table != "" &&
			!strings.EqualFold(ref.Table, from.Alias) &&
			!(from.Alias == "" && strings.EqualFold(ref.Table, from.Name)) &&
			!strings.EqualFold(ref.Table, from.Name) {
			continue
		}
		if i := p.defs[level].ColumnIndex(ref.Name); i >= 0 {
			found = append(found, colBinding{level, i})
		}
	}
	switch len(found) {
	case 0:
		return colBinding{}, fmt.Errorf("unknown column %q", ref)
	case 1:
		return found[0], nil
	default:
		return colBinding{}, fmt.Errorf("ambiguous column %q", ref)
	}
}
