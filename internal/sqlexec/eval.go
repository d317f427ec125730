package sqlexec

import (
	"fmt"
	"math"
	"strings"

	"github.com/trustedcells/tcq/internal/sqlparse"
	"github.com/trustedcells/tcq/internal/storage"
)

// evalContext supplies values for column references and, in the finalize
// step of aggregate queries, results for aggregate calls.
type evalContext struct {
	plan *Plan
	row  storage.Row // combined base row (nil during finalize)

	// finalize mode: grouping values + computed aggregate results
	groupRow   storage.Row
	aggResults []storage.Value
}

// evalExpr evaluates e under ctx.
func (ctx *evalContext) evalExpr(e sqlparse.Expr) (storage.Value, error) {
	switch n := e.(type) {
	case *sqlparse.Literal:
		return n.Value, nil

	case *sqlparse.ColumnRef:
		pos, bound := ctx.plan.colPos[n]
		if ctx.row != nil {
			if !bound {
				return storage.Null(), fmt.Errorf("sqlexec: column %q was not bound by Compile", n)
			}
			return ctx.row[pos], nil
		}
		// finalize mode: the column must be a grouping column
		for i, g := range ctx.plan.GroupCols {
			if bound && g.pos == pos {
				return ctx.groupRow[i], nil
			}
		}
		return storage.Null(), fmt.Errorf("sqlexec: column %q not available after grouping", n)

	case *sqlparse.FuncCall:
		idx, ok := ctx.plan.aggIndex[n]
		if !ok {
			return storage.Null(), fmt.Errorf("sqlexec: aggregate %s outside aggregate context", n)
		}
		if ctx.aggResults == nil {
			return storage.Null(), fmt.Errorf("sqlexec: aggregate %s evaluated before aggregation", n)
		}
		return ctx.aggResults[idx], nil

	case *sqlparse.UnaryExpr:
		v, err := ctx.evalExpr(n.Expr)
		if err != nil {
			return storage.Null(), err
		}
		if n.Op == "NOT" {
			if v.IsNull() {
				return storage.Null(), nil
			}
			return storage.Bool(!v.AsBool()), nil
		}
		return storage.Neg(v)

	case *sqlparse.BinaryExpr:
		return ctx.evalBinary(n)

	case *sqlparse.InExpr:
		v, err := ctx.evalExpr(n.Expr)
		if err != nil {
			return storage.Null(), err
		}
		if v.IsNull() {
			return storage.Null(), nil
		}
		found := false
		for _, item := range n.List {
			iv, err := ctx.evalExpr(item)
			if err != nil {
				return storage.Null(), err
			}
			if storage.Equal(v, iv) {
				found = true
				break
			}
		}
		return storage.Bool(found != n.Negate), nil

	case *sqlparse.BetweenExpr:
		v, err := ctx.evalExpr(n.Expr)
		if err != nil {
			return storage.Null(), err
		}
		lo, err := ctx.evalExpr(n.Lo)
		if err != nil {
			return storage.Null(), err
		}
		hi, err := ctx.evalExpr(n.Hi)
		if err != nil {
			return storage.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return storage.Null(), nil
		}
		cl, err := storage.Compare(v, lo)
		if err != nil {
			return storage.Null(), err
		}
		ch, err := storage.Compare(v, hi)
		if err != nil {
			return storage.Null(), err
		}
		in := cl >= 0 && ch <= 0
		return storage.Bool(in != n.Negate), nil

	case *sqlparse.IsNullExpr:
		v, err := ctx.evalExpr(n.Expr)
		if err != nil {
			return storage.Null(), err
		}
		return storage.Bool(v.IsNull() != n.Negate), nil

	case *sqlparse.ScalarCall:
		v, err := ctx.evalExpr(n.Arg)
		if err != nil {
			return storage.Null(), err
		}
		return evalScalar(n.Func, v)

	default:
		return storage.Null(), fmt.Errorf("sqlexec: unsupported expression %T", e)
	}
}

// evalScalar applies a scalar function. NULL propagates through every
// function.
func evalScalar(fn sqlparse.ScalarFunc, v storage.Value) (storage.Value, error) {
	if v.IsNull() {
		return storage.Null(), nil
	}
	switch fn {
	case sqlparse.ScalarAbs:
		if v.Kind() == storage.KindInt {
			i, _ := v.AsInt()
			if i < 0 {
				i = -i
			}
			return storage.Int(i), nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return storage.Null(), fmt.Errorf("sqlexec: ABS: %w", err)
		}
		return storage.Float(math.Abs(f)), nil
	case sqlparse.ScalarRound, sqlparse.ScalarFloor, sqlparse.ScalarCeil:
		f, err := v.AsFloat()
		if err != nil {
			return storage.Null(), fmt.Errorf("sqlexec: %s: %w", fn, err)
		}
		switch fn {
		case sqlparse.ScalarRound:
			return storage.Float(math.Round(f)), nil
		case sqlparse.ScalarFloor:
			return storage.Float(math.Floor(f)), nil
		default:
			return storage.Float(math.Ceil(f)), nil
		}
	case sqlparse.ScalarUpper:
		return storage.Str(strings.ToUpper(v.AsString())), nil
	case sqlparse.ScalarLower:
		return storage.Str(strings.ToLower(v.AsString())), nil
	case sqlparse.ScalarLength:
		return storage.Int(int64(len(v.AsString()))), nil
	default:
		return storage.Null(), fmt.Errorf("sqlexec: unknown scalar function %q", fn)
	}
}

func (ctx *evalContext) evalBinary(n *sqlparse.BinaryExpr) (storage.Value, error) {
	// Short-circuit logic with SQL NULL collapse (NULL is "not true").
	switch n.Op {
	case "AND":
		l, err := ctx.evalExpr(n.Left)
		if err != nil {
			return storage.Null(), err
		}
		if !l.IsNull() && !l.AsBool() {
			return storage.Bool(false), nil
		}
		r, err := ctx.evalExpr(n.Right)
		if err != nil {
			return storage.Null(), err
		}
		return storage.Bool(l.AsBool() && r.AsBool()), nil
	case "OR":
		l, err := ctx.evalExpr(n.Left)
		if err != nil {
			return storage.Null(), err
		}
		if !l.IsNull() && l.AsBool() {
			return storage.Bool(true), nil
		}
		r, err := ctx.evalExpr(n.Right)
		if err != nil {
			return storage.Null(), err
		}
		return storage.Bool(l.AsBool() || r.AsBool()), nil
	}

	l, err := ctx.evalExpr(n.Left)
	if err != nil {
		return storage.Null(), err
	}
	r, err := ctx.evalExpr(n.Right)
	if err != nil {
		return storage.Null(), err
	}
	switch n.Op {
	case "+":
		return storage.Add(l, r)
	case "-":
		return storage.Sub(l, r)
	case "*":
		return storage.Mul(l, r)
	case "/":
		return storage.Div(l, r)
	case "%":
		return storage.Mod(l, r)
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		return storage.Bool(likeMatch(l.AsString(), r.AsString())), nil
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		c, err := storage.Compare(l, r)
		if err != nil {
			// Incomparable kinds: equality is false, inequality true,
			// ordering is an error.
			switch n.Op {
			case "=":
				return storage.Bool(false), nil
			case "<>":
				return storage.Bool(true), nil
			default:
				return storage.Null(), err
			}
		}
		switch n.Op {
		case "=":
			return storage.Bool(c == 0), nil
		case "<>":
			return storage.Bool(c != 0), nil
		case "<":
			return storage.Bool(c < 0), nil
		case "<=":
			return storage.Bool(c <= 0), nil
		case ">":
			return storage.Bool(c > 0), nil
		default:
			return storage.Bool(c >= 0), nil
		}
	default:
		return storage.Null(), fmt.Errorf("sqlexec: unknown operator %q", n.Op)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte),
// case-sensitive, via iterative backtracking on the last %.
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, match = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// predicateTrue evaluates a boolean expression, treating NULL as false.
func (ctx *evalContext) predicateTrue(e sqlparse.Expr) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := ctx.evalExpr(e)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.AsBool(), nil
}
