package sqlparse

import (
	"fmt"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/storage"
)

// Expr is any expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Literal is a constant value.
type Literal struct {
	Value storage.Value
}

func (*Literal) exprNode() {}

// String renders the literal in SQL syntax.
func (l *Literal) String() string {
	switch l.Value.Kind() {
	case storage.KindString:
		return "'" + strings.ReplaceAll(l.Value.AsString(), "'", "''") + "'"
	default:
		return l.Value.AsString()
	}
}

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColumnRef) exprNode() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// BinaryExpr applies an infix operator. Op is one of
// = <> < <= > >= AND OR.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (*BinaryExpr) exprNode() {}

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// NotExpr negates a condition.
type NotExpr struct {
	Expr Expr
}

func (*NotExpr) exprNode() {}

func (n *NotExpr) String() string { return "(NOT " + n.Expr.String() + ")" }

// InExpr tests membership in a literal list.
type InExpr struct {
	Expr   Expr
	List   []Expr
	Negate bool
}

func (*InExpr) exprNode() {}

func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return "(" + e.Expr.String() + not + " IN (" + strings.Join(items, ", ") + "))"
}

// BetweenExpr tests lo <= expr <= hi.
type BetweenExpr struct {
	Expr, Lo, Hi Expr
	Negate       bool
}

func (*BetweenExpr) exprNode() {}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return "(" + e.Expr.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// IsNullExpr tests SQL NULL-ness.
type IsNullExpr struct {
	Expr   Expr
	Negate bool
}

func (*IsNullExpr) exprNode() {}

func (e *IsNullExpr) String() string {
	if e.Negate {
		return "(" + e.Expr.String() + " IS NOT NULL)"
	}
	return "(" + e.Expr.String() + " IS NULL)"
}

// AggFunc enumerates the aggregate functions of the dialect. The paper
// covers distributive (COUNT, SUM, MIN, MAX), algebraic (AVG) and holistic
// (MEDIAN, COUNT DISTINCT) functions, citing [27].
type AggFunc string

// Supported aggregate functions.
const (
	AggCount  AggFunc = "COUNT"
	AggSum    AggFunc = "SUM"
	AggAvg    AggFunc = "AVG"
	AggMin    AggFunc = "MIN"
	AggMax    AggFunc = "MAX"
	AggMedian AggFunc = "MEDIAN"
	AggVar    AggFunc = "VARIANCE"
	AggStddev AggFunc = "STDDEV"
)

// aggFuncs recognizes aggregate function names during parsing.
var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg,
	"MIN": AggMin, "MAX": AggMax, "MEDIAN": AggMedian,
	"VARIANCE": AggVar, "VAR": AggVar, "STDDEV": AggStddev,
}

// FuncCall is an aggregate function application to one column. Star is
// COUNT(*); Distinct is COUNT(DISTINCT x) (and is accepted, though unusual,
// for the other functions too).
type FuncCall struct {
	Func     AggFunc
	Arg      *ColumnRef // nil when Star
	Star     bool
	Distinct bool
}

func (*FuncCall) exprNode() {}

func (f *FuncCall) String() string {
	inner := "*"
	if !f.Star {
		inner = f.Arg.String()
		if f.Distinct {
			inner = "DISTINCT " + inner
		}
	}
	return string(f.Func) + "(" + inner + ")"
}

// SelectItem is one projection of the SELECT list.
type SelectItem struct {
	Expr  Expr   // a *ColumnRef or *FuncCall; nil when Star
	Alias string // optional AS alias
	Star  bool   // bare *
}

// Name returns the output column name of the item.
func (s SelectItem) Name() string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Star {
		return "*"
	}
	return s.Expr.String()
}

// TableRef is one FROM-list entry. Joins between entries are internal —
// evaluated over the tables of a single TDS.
type TableRef struct {
	Name  string
	Alias string
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// SizeClause bounds the collection phase: stop after MaxTuples result
// tuples and/or after Duration has elapsed (whichever comes first). The SSI
// evaluates it in cleartext (step 1 of the protocol), so it carries no
// private data.
type SizeClause struct {
	MaxTuples int64
	Duration  time.Duration
}

// IsZero reports whether no SIZE clause was given.
func (s SizeClause) IsZero() bool { return s.MaxTuples == 0 && s.Duration == 0 }

func (s SizeClause) String() string {
	switch {
	case s.MaxTuples > 0 && s.Duration > 0:
		return fmt.Sprintf("SIZE %d TUPLES DURATION '%s'", s.MaxTuples, s.Duration)
	case s.Duration > 0:
		return fmt.Sprintf("SIZE DURATION '%s'", s.Duration)
	case s.MaxTuples > 0:
		return fmt.Sprintf("SIZE %d", s.MaxTuples)
	default:
		return ""
	}
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Select  []SelectItem
	From    []TableRef
	Where   Expr // nil if absent
	GroupBy []*ColumnRef
	Having  Expr // nil if absent
	Size    SizeClause
}

// HasGroupBy reports whether the statement needs the aggregation phase.
func (s *SelectStmt) HasGroupBy() bool { return len(s.GroupBy) > 0 }

// Aggregates returns every aggregate function call in SELECT and HAVING, in
// a stable order (SELECT items first, then HAVING, left to right).
func (s *SelectStmt) Aggregates() []*FuncCall {
	var out []*FuncCall
	for _, it := range s.Select {
		if !it.Star {
			out = collectAggs(it.Expr, out)
		}
	}
	out = collectAggs(s.Having, out)
	return out
}

func collectAggs(e Expr, acc []*FuncCall) []*FuncCall {
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*FuncCall); ok {
			acc = append(acc, f)
			return false
		}
		return true
	})
	return acc
}

// Walk calls visit on e and, while visit returns true, on every node below
// it, depth first and left to right. A nil e is not visited.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		Walk(n.Left, visit)
		Walk(n.Right, visit)
	case *NotExpr:
		Walk(n.Expr, visit)
	case *InExpr:
		Walk(n.Expr, visit)
		for _, it := range n.List {
			Walk(it, visit)
		}
	case *BetweenExpr:
		Walk(n.Expr, visit)
		Walk(n.Lo, visit)
		Walk(n.Hi, visit)
	case *IsNullExpr:
		Walk(n.Expr, visit)
	case *FuncCall:
		if n.Arg != nil {
			Walk(n.Arg, visit)
		}
	}
}

// IsAggregate reports whether the statement computes any aggregate
// function (with or without GROUP BY).
func (s *SelectStmt) IsAggregate() bool {
	return s.HasGroupBy() || len(s.Aggregates()) > 0
}

// String renders the statement back to SQL (normalized form).
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if !s.Size.IsZero() {
		b.WriteString(" " + s.Size.String())
	}
	return b.String()
}
