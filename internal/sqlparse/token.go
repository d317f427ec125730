// Package sqlparse implements the front end for the SQL dialect of the
// paper (Section 2.3):
//
//	SELECT <attribute(s) and/or aggregate function(s)>
//	FROM   <table(s)>
//	[WHERE <condition(s)>]
//	[GROUP BY <grouping attribute(s)>]
//	[HAVING <grouping condition(s)>]
//	[SIZE  <size condition(s)>]
//
// The SIZE clause is borrowed from StreamSQL windows: it bounds the number
// of tuples to collect and/or the collection duration. Cross-TDS joins are
// not part of the dialect; multiple tables in FROM are internal joins
// evaluated locally inside each TDS.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp // operators and punctuation
)

// token is a lexical token with its source position (1-based column).
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords of the dialect. GROUP BY is handled pairwise in the parser.
// ORDER, LIMIT and LIKE are not in the dialect but stay reserved, so that
// a query using them fails to parse instead of reading one as an alias
// (FROM T LIMIT would otherwise name T "LIMIT").
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "SIZE": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "BETWEEN": true, "IS": true,
	"NULL": true, "TRUE": true, "FALSE": true, "DISTINCT": true,
	"TUPLES": true, "DURATION": true,
	"ORDER": true, "LIMIT": true, "LIKE": true,
}

// lexer turns query text into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex scans the whole input eagerly; queries are short.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos + 1})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent(start)
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			if err := l.lexNumber(start); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		default:
			if err := l.lexOp(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	kind := tokIdent
	if keywords[strings.ToUpper(text)] {
		kind = tokKeyword
		text = strings.ToUpper(text)
	}
	l.toks = append(l.toks, token{kind: kind, text: text, pos: start + 1})
}

func (l *lexer) lexNumber(start int) error {
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsDigit(rune(c)):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos >= len(l.src) || !unicode.IsDigit(rune(l.src[l.pos])) {
				return fmt.Errorf("sqlparse: malformed exponent at column %d", start+1)
			}
		default:
			goto done
		}
	}
done:
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start + 1})
	return nil
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start + 1})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparse: unterminated string starting at column %d", start+1)
}

func (l *lexer) lexOp(start int) error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		l.toks = append(l.toks, token{kind: tokOp, text: two, pos: start + 1})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '-', '*', '(', ')', ',', '.':
		l.pos++
		l.toks = append(l.toks, token{kind: tokOp, text: string(c), pos: start + 1})
		return nil
	}
	return fmt.Errorf("sqlparse: unexpected character %q at column %d", c, start+1)
}
