package query

import (
	"fmt"
	"math"
	"strings"

	"sciview/internal/metadata"
)

// Statement is a parsed query: *CreateView or *Select.
type Statement interface{ stmt() }

// CreateView defines a join-based view, or — with no JOIN clause — a
// restriction view layered on an existing view (a DDS built on another
// DDS):
//
//	CREATE VIEW <name> AS SELECT * FROM <left> JOIN <right> ON (a, b, ...)
//	    [WHERE <predicates>]
//	CREATE VIEW <name> AS SELECT * FROM <view> [WHERE <predicates>]
type CreateView struct {
	Name      string
	Left      string
	Right     string   // empty for a restriction view over Left
	JoinAttrs []string // empty for a restriction view
	Where     []Pred
}

// Derived reports whether this is a restriction view over an existing
// view rather than a base join view.
func (cv *CreateView) Derived() bool { return cv.Right == "" }

func (*CreateView) stmt() {}

// Agg names an aggregation function.
type Agg string

// Supported aggregation functions.
const (
	AggNone  Agg = ""
	AggAvg   Agg = "AVG"
	AggSum   Agg = "SUM"
	AggMin   Agg = "MIN"
	AggMax   Agg = "MAX"
	AggCount Agg = "COUNT"
)

// SelectItem is one output column: `*`, an attribute, or AGG(attr).
// COUNT(*) is represented as Agg=COUNT with Attr="*".
type SelectItem struct {
	Star bool
	Attr string
	Agg  Agg
}

// Pred is an interval constraint on one attribute, the conjunction form
// all WHERE clauses reduce to.
type Pred struct {
	Attr string
	Lo   float64
	Hi   float64
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Attr string
	Desc bool
}

// Select is a scan or aggregation over a table or view:
//
//	SELECT <items> FROM <name> [WHERE <preds>] [GROUP BY a, b]
//	    [HAVING AGG(attr) <op> <num>] [ORDER BY a [DESC], ...] [LIMIT n]
type Select struct {
	Items   []SelectItem
	From    string
	Where   []Pred
	GroupBy []string
	Having  *Having
	OrderBy []OrderKey
	// Limit caps the result rows; -1 means no limit.
	Limit int
}

func (*Select) stmt() {}

// Explain wraps a SELECT: `EXPLAIN SELECT ...`. The planner renders the
// lowered plan tree instead of executing it.
type Explain struct {
	Select *Select
}

func (*Explain) stmt() {}

// Having is a single aggregate filter over groups.
type Having struct {
	Agg  Agg
	Attr string
	Op   string // one of = < <= > >=
	Val  float64
}

// Parse parses one statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var st Statement
	if p.peekKeyword("CREATE") {
		st, err = p.parseCreateView()
	} else if p.acceptKeyword("EXPLAIN") {
		var s *Select
		s, err = p.parseSelect()
		if err == nil {
			st = &Explain{Select: s}
		}
	} else {
		st, err = p.parseSelect()
	}
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input starting at %q", p.cur().text)
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("query: %s (at offset %d in %q)",
		fmt.Sprintf(format, args...), p.cur().pos, p.src)
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *parser) number() (float64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errf("expected number, got %q", t.text)
	}
	p.i++
	return t.num, nil
}

func (p *parser) parseCreateView() (*CreateView, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("*"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	left, err := p.ident()
	if err != nil {
		return nil, err
	}
	cv := &CreateView{Name: name, Left: left}
	if p.acceptKeyword("JOIN") {
		right, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var attrs []string
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		cv.Right, cv.JoinAttrs = right, attrs
	}
	if p.acceptKeyword("WHERE") {
		cv.Where, err = p.parsePreds()
		if err != nil {
			return nil, err
		}
	}
	return cv, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &Select{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.From = from
	if p.acceptKeyword("WHERE") {
		s.Where, err = p.parsePreds()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, a)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseHaving()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			attr, err := p.ident()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Attr: attr}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	s.Limit = -1
	if p.acceptKeyword("LIMIT") {
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		if n < 0 || n != float64(int(n)) {
			return nil, p.errf("LIMIT must be a non-negative integer, got %g", n)
		}
		s.Limit = int(n)
	}
	return s, nil
}

var aggNames = map[string]Agg{
	"AVG": AggAvg, "SUM": AggSum, "MIN": AggMin, "MAX": AggMax, "COUNT": AggCount,
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	name, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	if agg, ok := aggNames[strings.ToUpper(name)]; ok && p.acceptSymbol("(") {
		var attr string
		if p.acceptSymbol("*") {
			if agg != AggCount {
				return SelectItem{}, p.errf("%s(*) is only valid for COUNT", agg)
			}
			attr = "*"
		} else {
			attr, err = p.ident()
			if err != nil {
				return SelectItem{}, err
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Attr: attr, Agg: agg}, nil
	}
	return SelectItem{Attr: name}, nil
}

func (p *parser) parseHaving() (*Having, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	agg, ok := aggNames[strings.ToUpper(name)]
	if !ok {
		return nil, p.errf("HAVING requires an aggregate, got %q", name)
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var attr string
	if p.acceptSymbol("*") {
		if agg != AggCount {
			return nil, p.errf("%s(*) is only valid for COUNT", agg)
		}
		attr = "*"
	} else {
		attr, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	op := p.cur()
	if op.kind != tokSymbol || !isCmp(op.text) {
		return nil, p.errf("expected comparison operator")
	}
	p.i++
	v, err := p.number()
	if err != nil {
		return nil, err
	}
	return &Having{Agg: agg, Attr: attr, Op: op.text, Val: v}, nil
}

func isCmp(s string) bool {
	switch s {
	case "=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// parsePreds parses `cond AND cond AND ...` where cond is one of
//
//	attr BETWEEN lo AND hi
//	attr <op> number         (op ∈ =, <, <=, >, >=)
//	number <op> attr
func (p *parser) parsePreds() ([]Pred, error) {
	var preds []Pred
	for {
		pr, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		if !p.acceptKeyword("AND") {
			break
		}
	}
	return MergePreds(preds)
}

func (p *parser) parsePred() (Pred, error) {
	if p.cur().kind == tokNumber {
		// number <op> attr — flip it.
		v, err := p.number()
		if err != nil {
			return Pred{}, err
		}
		op := p.cur()
		if op.kind != tokSymbol || !isCmp(op.text) {
			return Pred{}, p.errf("expected comparison operator")
		}
		p.i++
		attr, err := p.ident()
		if err != nil {
			return Pred{}, err
		}
		return predFromCmp(attr, flipOp(op.text), v)
	}
	attr, err := p.ident()
	if err != nil {
		return Pred{}, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.number()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return Pred{}, err
		}
		hi, err := p.number()
		if err != nil {
			return Pred{}, err
		}
		return Pred{Attr: attr, Lo: lo, Hi: hi}, nil
	}
	if p.acceptKeyword("IN") {
		// The paper's interval notation: x IN [0, 256].
		if err := p.expectSymbol("["); err != nil {
			return Pred{}, err
		}
		lo, err := p.number()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectSymbol(","); err != nil {
			return Pred{}, err
		}
		hi, err := p.number()
		if err != nil {
			return Pred{}, err
		}
		if err := p.expectSymbol("]"); err != nil {
			return Pred{}, err
		}
		return Pred{Attr: attr, Lo: lo, Hi: hi}, nil
	}
	op := p.cur()
	if op.kind != tokSymbol || !isCmp(op.text) {
		return Pred{}, p.errf("expected BETWEEN, IN or comparison operator after %q", attr)
	}
	p.i++
	v, err := p.number()
	if err != nil {
		return Pred{}, err
	}
	return predFromCmp(attr, op.text, v)
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// predFromCmp converts a single comparison to an interval. Strict bounds
// are tightened by one float64 ulp, exact for our float32-valued data.
func predFromCmp(attr, op string, v float64) (Pred, error) {
	inf := math.Inf(1)
	switch op {
	case "=":
		return Pred{Attr: attr, Lo: v, Hi: v}, nil
	case "<":
		return Pred{Attr: attr, Lo: -inf, Hi: math.Nextafter(v, -inf)}, nil
	case "<=":
		return Pred{Attr: attr, Lo: -inf, Hi: v}, nil
	case ">":
		return Pred{Attr: attr, Lo: math.Nextafter(v, inf), Hi: inf}, nil
	case ">=":
		return Pred{Attr: attr, Lo: v, Hi: inf}, nil
	}
	return Pred{}, fmt.Errorf("query: unsupported operator %q", op)
}

// MergePreds conjoins predicates: it intersects multiple constraints on the
// same attribute and rejects empty intervals. The parser merges a WHERE
// clause with it; view layering and view queries merge a view's base
// predicates with the query's.
func MergePreds(preds []Pred) ([]Pred, error) {
	byAttr := make(map[string]int)
	var out []Pred
	for _, pr := range preds {
		if i, ok := byAttr[pr.Attr]; ok {
			if pr.Lo > out[i].Lo {
				out[i].Lo = pr.Lo
			}
			if pr.Hi < out[i].Hi {
				out[i].Hi = pr.Hi
			}
		} else {
			byAttr[pr.Attr] = len(out)
			out = append(out, pr)
		}
	}
	for _, pr := range out {
		if pr.Lo > pr.Hi {
			return nil, fmt.Errorf("query: contradictory constraints on %q: [%g, %g]", pr.Attr, pr.Lo, pr.Hi)
		}
	}
	return out, nil
}

// ToRange converts predicates to a metadata.Range.
func ToRange(preds []Pred) metadata.Range {
	var r metadata.Range
	for _, p := range preds {
		r.Attrs = append(r.Attrs, p.Attr)
		r.Lo = append(r.Lo, p.Lo)
		r.Hi = append(r.Hi, p.Hi)
	}
	return r
}
