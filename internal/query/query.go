// Package query implements a TAG-style declarative aggregation interface
// on top of the TBON, modeled on the sensor-network system the paper
// surveys in §2.3: "a database-like SQL interface that allows users to
// express simple, declarative queries that execute in a distributed manner
// on the nodes of the network."
//
// Queries have the form
//
//	SELECT <agg>(<attr>)[, <agg>(<attr>)...]
//	  [WHERE <attr> <op> <number> [AND ...]]
//	  [GROUP BY <attr>]
//
// with agg one of count, sum, avg, min, max, std. Every back-end exposes
// an attribute map (plus the implicit "rank"); predicates are evaluated
// locally at the back-ends, per-group sufficient statistics are merged by
// a filter at every tree level, and the front-end renders the final rows.
// The network cost is therefore one constant-size partial per group per
// link, independent of the number of back-ends — TAG's in-network
// aggregation property.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// AggFn names an aggregate function.
type AggFn string

// The supported aggregate functions.
const (
	AggCount AggFn = "count"
	AggSum   AggFn = "sum"
	AggAvg   AggFn = "avg"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
	AggStd   AggFn = "std"
)

// Select is one output column: Fn applied to Attr.
type Select struct {
	Fn   AggFn
	Attr string
}

// String renders the column header.
func (s Select) String() string { return fmt.Sprintf("%s(%s)", s.Fn, s.Attr) }

// CmpOp is a predicate comparison operator.
type CmpOp string

// The supported comparison operators.
const (
	OpEq CmpOp = "=="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Pred is one conjunct of the WHERE clause: Attr Op Value.
type Pred struct {
	Attr  string
	Op    CmpOp
	Value float64
}

// Eval applies the predicate to an attribute map; missing attributes fail
// the predicate.
func (p Pred) Eval(attrs map[string]float64) bool {
	v, ok := attrs[p.Attr]
	if !ok {
		return false
	}
	switch p.Op {
	case OpEq:
		return v == p.Value
	case OpNe:
		return v != p.Value
	case OpLt:
		return v < p.Value
	case OpLe:
		return v <= p.Value
	case OpGt:
		return v > p.Value
	case OpGe:
		return v >= p.Value
	}
	return false
}

// Query is a parsed declarative aggregation request.
type Query struct {
	Selects []Select
	Where   []Pred // conjunction
	GroupBy string // attribute name, or "" for a single global group
}

// ErrSyntax reports an unparseable query.
var ErrSyntax = errors.New("query: syntax error")

// Parse parses the SELECT ... [WHERE ...] [GROUP BY ...] form. Keywords
// are case-insensitive; attribute names are case-sensitive.
func Parse(s string) (*Query, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

func tokenize(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',':
			toks = append(toks, string(c))
			i++
		case strings.ContainsRune("=!<>", rune(c)):
			j := i + 1
			if j < len(s) && s[j] == '=' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case c == '-' || c == '.' || (c >= '0' && c <= '9'):
			j := i + 1
			for j < len(s) && (s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
				s[j] == '-' || s[j] == '+' || (s[j] >= '0' && s[j] <= '9')) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case isIdentByte(c):
			j := i + 1
			for j < len(s) && isIdentByte(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			return nil, fmt.Errorf("%w: unexpected character %q", ErrSyntax, c)
		}
	}
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

func (p *parser) expect(want string) error {
	if got := p.next(); !strings.EqualFold(got, want) {
		return fmt.Errorf("%w: expected %q, got %q", ErrSyntax, want, got)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expect("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		q.Selects = append(q.Selects, sel)
		if p.peek() != "," {
			break
		}
		p.next()
	}
	if strings.EqualFold(p.peek(), "where") {
		p.next()
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if !strings.EqualFold(p.peek(), "and") {
				break
			}
			p.next()
		}
	}
	if strings.EqualFold(p.peek(), "group") {
		p.next()
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		attr := p.next()
		if attr == "" || !isIdentByte(attr[0]) || isKeyword(attr) {
			return nil, fmt.Errorf("%w: bad GROUP BY attribute %q", ErrSyntax, attr)
		}
		q.GroupBy = attr
	}
	if rest := p.peek(); rest != "" {
		return nil, fmt.Errorf("%w: trailing input at %q", ErrSyntax, rest)
	}
	return q, nil
}

func isKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "select", "where", "and", "group", "by":
		return true
	}
	return false
}

func (p *parser) parseSelect() (Select, error) {
	fn := strings.ToLower(p.next())
	switch AggFn(fn) {
	case AggCount, AggSum, AggAvg, AggMin, AggMax, AggStd:
	default:
		return Select{}, fmt.Errorf("%w: unknown aggregate %q", ErrSyntax, fn)
	}
	if err := p.expect("("); err != nil {
		return Select{}, err
	}
	attr := p.next()
	if attr == "" || attr == ")" {
		return Select{}, fmt.Errorf("%w: %s() needs an attribute", ErrSyntax, fn)
	}
	if err := p.expect(")"); err != nil {
		return Select{}, err
	}
	return Select{Fn: AggFn(fn), Attr: attr}, nil
}

func (p *parser) parsePred() (Pred, error) {
	attr := p.next()
	if attr == "" || !isIdentByte(attr[0]) || isKeyword(attr) {
		return Pred{}, fmt.Errorf("%w: bad predicate attribute %q", ErrSyntax, attr)
	}
	op := CmpOp(p.next())
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return Pred{}, fmt.Errorf("%w: bad operator %q", ErrSyntax, op)
	}
	num := p.next()
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return Pred{}, fmt.Errorf("%w: bad number %q", ErrSyntax, num)
	}
	return Pred{Attr: attr, Op: op, Value: v}, nil
}

// String renders the query back to its canonical text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, s := range q.Selects {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, w := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			fmt.Fprintf(&b, "%s %s %g", w.Attr, w.Op, w.Value)
		}
	}
	if q.GroupBy != "" {
		fmt.Fprintf(&b, " GROUP BY %s", q.GroupBy)
	}
	return b.String()
}
