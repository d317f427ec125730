package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/trustedcells/tcq/internal/storage"
)

// Parse parses one SELECT statement of the dialect.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected %s after end of statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// at reports whether the current token matches kind (and text, when given).
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a required token or fails.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{
			tokIdent: "identifier", tokNumber: "number", tokString: "string",
		}[kind]
	}
	return token{}, p.errorf("expected %s, found %s", want, p.peek())
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: column %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, col)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.accept(tokKeyword, "SIZE") {
		size, err := p.parseSizeClause()
		if err != nil {
			return nil, err
		}
		stmt.Size = size
	}
	if stmt.Having != nil && !stmt.HasGroupBy() {
		return nil, fmt.Errorf("sqlparse: HAVING requires GROUP BY")
	}
	return stmt, nil
}

// parseSelectItem parses *, a column or an aggregate, with an optional
// alias.
func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	var e Expr
	var err error
	if p.atAggregate() {
		e, err = p.parseAggregate()
	} else {
		e, err = p.parseColumnRef()
	}
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.text
	} else if p.at(tokIdent, "") {
		// Bare alias: SELECT AVG(x) avgx
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: t.text}
	if p.at(tokIdent, "") {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// parseSizeClause parses: SIZE [<int> [TUPLES]] [DURATION '<go duration>'].
// At least one bound must be present.
func (p *parser) parseSizeClause() (SizeClause, error) {
	var s SizeClause
	if p.at(tokNumber, "") {
		t := p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n <= 0 {
			return s, fmt.Errorf("sqlparse: column %d: SIZE wants a positive integer, got %q", t.pos, t.text)
		}
		s.MaxTuples = n
		p.accept(tokKeyword, "TUPLES")
	}
	if p.accept(tokKeyword, "DURATION") {
		t, err := p.expect(tokString, "")
		if err != nil {
			return s, err
		}
		d, err := time.ParseDuration(t.text)
		if err != nil || d <= 0 {
			return s, fmt.Errorf("sqlparse: column %d: bad DURATION %q", t.pos, t.text)
		}
		s.Duration = d
	}
	if s.IsZero() {
		return s, p.errorf("SIZE clause needs a tuple count and/or DURATION")
	}
	return s, nil
}

// Expression grammar, loosest to tightest:
//
//	expr    := and { OR and }
//	and     := not { AND not }
//	not     := [NOT] pred
//	pred    := operand [cmp operand | [NOT] IN (...) | [NOT] BETWEEN .. AND .. | IS [NOT] NULL]
//	operand := literal | aggregate | columnRef | ( expr )
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Expr: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	// comparison operators
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.at(tokOp, op) {
			p.next()
			right, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	negate := false
	if p.at(tokKeyword, "NOT") {
		// lookahead for NOT IN / NOT BETWEEN
		save := p.pos
		p.next()
		switch {
		case p.at(tokKeyword, "IN"), p.at(tokKeyword, "BETWEEN"):
			negate = true
		default:
			p.pos = save
			return left, nil
		}
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			item, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, List: list, Negate: negate}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.accept(tokKeyword, "IS"):
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negate: neg}, nil
	}
	return left, nil
}

// parseOperand parses one side of a predicate. A '-' is accepted only
// before a number, and folds into the literal.
func (p *parser) parseOperand() (Expr, error) {
	t := p.peek()
	switch {
	case p.accept(tokOp, "-"):
		num, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		return numberLiteral(num, "-")
	case t.kind == tokNumber:
		p.next()
		return numberLiteral(t, "")
	case t.kind == tokString:
		p.next()
		return &Literal{Value: storage.Str(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		return &Literal{Value: storage.Null()}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return &Literal{Value: storage.Bool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return &Literal{Value: storage.Bool(false)}, nil
	case t.kind == tokOp && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.atAggregate():
		return p.parseAggregate()
	case t.kind == tokIdent:
		return p.parseColumnRef()
	}
	return nil, p.errorf("unexpected %s", t)
}

// numberLiteral converts a number token, prefixed by sign, to a literal:
// an INT when it is integral and fits, a FLOAT otherwise.
func numberLiteral(t token, sign string) (Expr, error) {
	text := sign + t.text
	if !strings.ContainsAny(text, ".eE") {
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return &Literal{Value: storage.Int(n)}, nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("sqlparse: column %d: bad number %q", t.pos, text)
	}
	if f == 0 {
		f = 0 // -0 is 0, and renders so
	}
	return &Literal{Value: storage.Float(f)}, nil
}

// atAggregate reports whether an aggregate call starts at the current
// token: an aggregate's name followed by '('. The name alone is a column.
func (p *parser) atAggregate() bool {
	if !p.at(tokIdent, "") || p.toks[p.pos+1].kind != tokOp || p.toks[p.pos+1].text != "(" {
		return false
	}
	_, isAgg := aggFuncs[strings.ToUpper(p.peek().text)]
	return isAgg
}

// parseAggregate parses FUNC(*) (COUNT only) or FUNC([DISTINCT] column).
func (p *parser) parseAggregate() (*FuncCall, error) {
	call := &FuncCall{Func: aggFuncs[strings.ToUpper(p.next().text)]}
	p.next() // (
	if p.accept(tokOp, "*") {
		if call.Func != AggCount {
			return nil, p.errorf("%s(*) is only valid for COUNT", call.Func)
		}
		call.Star = true
	} else {
		call.Distinct = p.accept(tokKeyword, "DISTINCT")
		arg, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	ref := &ColumnRef{Name: t.text}
	if p.accept(tokOp, ".") {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ref.Table = t.text
		ref.Name = col.text
	}
	return ref, nil
}
