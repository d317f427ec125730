package sqlexec

import (
	"fmt"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// evalFn is a compiled expression. It reads the scope at positions Compile
// fixed: no column is looked up and no operator is dispatched on per row.
type evalFn func(s *scope) (storage.Value, error)

// scope is what a compiled expression reads: while scanning, the current
// row of each FROM level; after grouping, a group's values and the results
// of its aggregates.
type scope struct {
	rows  []storage.Row
	group storage.Row
	aggs  []storage.Value
}

func constant(v storage.Value) evalFn {
	return func(*scope) (storage.Value, error) { return v, nil }
}

// compiler turns expressions into evalFns: the scan's form, columns read
// by (FROM level, column), or with aggs set the post-grouping form,
// columns read from the group's values and aggregate calls from its
// results.
type compiler struct {
	p    *Plan
	aggs map[*sqlparse.FuncCall]int
}

var cmpTests = map[string]func(c int) bool{
	"=": func(c int) bool { return c == 0 }, "<>": func(c int) bool { return c != 0 },
	"<": func(c int) bool { return c < 0 }, "<=": func(c int) bool { return c <= 0 },
	">": func(c int) bool { return c > 0 }, ">=": func(c int) bool { return c >= 0 },
}

// expr compiles e, resolving its columns depth first and left to right, so
// the first unresolvable one is the error. An operator evaluates its
// operands in that order too, and stops at the first error.
func (c *compiler) expr(e sqlparse.Expr) (evalFn, error) {
	var operands []sqlparse.Expr
	switch n := e.(type) {
	case *sqlparse.Literal:
		return constant(n.Value), nil
	case *sqlparse.ColumnRef:
		return c.column(n)
	case *sqlparse.FuncCall:
		if i, ok := c.aggs[n]; ok {
			return func(s *scope) (storage.Value, error) { return s.aggs[i], nil }, nil
		}
		if n.Arg != nil {
			if _, err := c.p.resolve(n.Arg); err != nil {
				return nil, err
			}
		}
		err := fmt.Errorf("sqlexec: aggregate %s outside aggregate context", n)
		return func(*scope) (storage.Value, error) { return storage.Null(), err }, nil
	case *sqlparse.NotExpr:
		operands = []sqlparse.Expr{n.Expr}
	case *sqlparse.IsNullExpr:
		operands = []sqlparse.Expr{n.Expr}
	case *sqlparse.BinaryExpr:
		operands = []sqlparse.Expr{n.Left, n.Right}
	case *sqlparse.InExpr:
		operands = append([]sqlparse.Expr{n.Expr}, n.List...)
	case *sqlparse.BetweenExpr:
		operands = []sqlparse.Expr{n.Expr, n.Lo, n.Hi}
	default:
		return nil, fmt.Errorf("sqlexec: unsupported expression %T", e)
	}
	xs := make([]evalFn, len(operands))
	for i, o := range operands {
		var err error
		if xs[i], err = c.expr(o); err != nil {
			return nil, err
		}
	}
	x := xs[0]
	switch n := e.(type) {
	case *sqlparse.NotExpr:
		return func(s *scope) (storage.Value, error) {
			v, err := x(s)
			if err != nil || v.IsNull() {
				return storage.Null(), err
			}
			return storage.Bool(!v.AsBool()), nil
		}, nil
	case *sqlparse.IsNullExpr:
		negate := n.Negate
		return func(s *scope) (storage.Value, error) {
			v, err := x(s)
			if err != nil {
				return storage.Null(), err
			}
			return storage.Bool(v.IsNull() != negate), nil
		}, nil
	case *sqlparse.InExpr:
		negate, list := n.Negate, xs[1:]
		return func(s *scope) (storage.Value, error) {
			v, err := x(s)
			if err != nil || v.IsNull() {
				return storage.Null(), err
			}
			for _, item := range list {
				iv, err := item(s)
				if err != nil {
					return storage.Null(), err
				}
				if storage.Equal(v, iv) {
					return storage.Bool(!negate), nil
				}
			}
			return storage.Bool(negate), nil
		}, nil
	case *sqlparse.BetweenExpr:
		negate, lo, hi := n.Negate, xs[1], xs[2]
		return func(s *scope) (storage.Value, error) {
			var v [3]storage.Value
			var err error
			for i, f := range [3]evalFn{x, lo, hi} {
				if v[i], err = f(s); err != nil {
					return storage.Null(), err
				}
			}
			if v[0].IsNull() || v[1].IsNull() || v[2].IsNull() {
				return storage.Null(), nil
			}
			cl, err := storage.Compare(v[0], v[1])
			if err != nil {
				return storage.Null(), err
			}
			ch, err := storage.Compare(v[0], v[2])
			if err != nil {
				return storage.Null(), err
			}
			return storage.Bool((cl >= 0 && ch <= 0) != negate), nil
		}, nil
	}
	return binaryOp(e.(*sqlparse.BinaryExpr).Op, x, xs[1])
}

// column compiles a column reference: its (FROM level, column) while
// scanning, its grouping value after grouping.
func (c *compiler) column(n *sqlparse.ColumnRef) (evalFn, error) {
	b, err := c.p.resolve(n)
	if err != nil {
		return nil, err
	}
	if c.aggs == nil {
		return b.read, nil
	}
	for i, g := range c.p.GroupCols {
		if g == b {
			return func(s *scope) (storage.Value, error) { return s.group[i], nil }, nil
		}
	}
	return nil, fmt.Errorf("column %q must appear in GROUP BY or inside an aggregate", n)
}

// binaryOp compiles AND / OR, which short-circuit with SQL NULL collapsing
// to "not true", and the comparisons: NULL on a NULL operand; between
// kinds Compare refuses, equality false, inequality true and an ordering
// an error.
func binaryOp(op string, l, r evalFn) (evalFn, error) {
	if test, ok := cmpTests[op]; ok {
		ordering := op != "=" && op != "<>"
		incomparable := storage.Bool(op == "<>")
		return func(s *scope) (storage.Value, error) {
			a, err := l(s)
			if err != nil {
				return storage.Null(), err
			}
			b, err := r(s)
			if err != nil || a.IsNull() || b.IsNull() {
				return storage.Null(), err
			}
			c, err := storage.Compare(a, b)
			switch {
			case err == nil:
				return storage.Bool(test(c)), nil
			case ordering:
				return storage.Null(), err
			}
			return incomparable, nil
		}, nil
	}
	if op != "AND" && op != "OR" {
		return nil, fmt.Errorf("sqlexec: unknown operator %q", op)
	}
	and := op == "AND" // a non-NULL left side of the other truth value decides
	return func(s *scope) (storage.Value, error) {
		a, err := l(s)
		if err != nil {
			return storage.Null(), err
		}
		if !a.IsNull() && a.AsBool() != and {
			return storage.Bool(!and), nil
		}
		b, err := r(s)
		switch {
		case err != nil:
			return storage.Null(), err
		case and:
			return storage.Bool(a.AsBool() && b.AsBool()), nil
		}
		return storage.Bool(a.AsBool() || b.AsBool()), nil
	}, nil
}
