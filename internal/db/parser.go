package db

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is the parsed form of one T-SQL-subset statement.
type Statement interface{ stmt() }

// Literal is a parsed literal parameter or comparison value.
type Literal struct {
	// IsString selects S over N.
	IsString bool
	S        string
	N        float64
}

// Condition is one WHERE predicate: column <op> literal.
type Condition struct {
	Column string
	Op     string // one of = <> < <= > >=
	Value  Literal
}

// SelectStmt is SELECT [TOP n] cols|aggs FROM table
// [WHERE cond [AND cond]...] [ORDER BY col [ASC|DESC]].
type SelectStmt struct {
	// Columns lists projected column names; nil means * (unless Aggregates
	// is set).
	Columns []string
	// Aggregates, when non-empty, makes this an aggregate query returning
	// one row; mixing plain columns and aggregates is not supported.
	Aggregates []AggExpr
	// Top is the T-SQL TOP n row bound; 0 means unbounded.
	Top int
	// Table is the source table name.
	Table string
	// Where holds AND-combined predicates.
	Where []Condition
	// OrderBy names the sort column; empty means source order. OrderDesc
	// selects descending order.
	OrderBy   string
	OrderDesc bool
}

func (*SelectStmt) stmt() {}

// ExecStmt is EXEC procname @p1 = lit, @p2 = lit ... — the shape of the
// paper's Fig. 3 stored-procedure invocation.
type ExecStmt struct {
	Proc   string
	Params map[string]Literal
}

func (*ExecStmt) stmt() {}

// PredictStmt is the fused scoring statement:
//
//	SELECT <prediction | COUNT(*) | prediction, COUNT(*)>
//	FROM PREDICT(@model = 'm', @data = 't' [, @backend = ...][, @limit = n][, ...])
//	[WHERE col <op> lit [AND ...]]
//	[GROUP BY prediction]
//
// It expresses filter, scoring, and aggregation as one plan so the pipeline
// can push the WHERE and the aggregate into the scoring kernel instead of
// materializing a prediction table and querying it.
type PredictStmt struct {
	// Params are the PREDICT(...) arguments, the same names sp_score_model
	// accepts (@model, @data, @backend, @limit, @timeout).
	Params map[string]Literal
	// Columns lists projected column names; only "prediction" exists.
	Columns []string
	// Aggregates holds COUNT(*) style projections.
	Aggregates []AggExpr
	// GroupBy names the grouping column ("prediction"); empty means none.
	GroupBy string
	// Where holds AND-combined predicates over the source table's columns,
	// evaluated before scoring (predicate pushdown).
	Where []Condition
}

func (*PredictStmt) stmt() {}

// Parse parses a single statement.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sql: sql}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon, then EOF.
	if p.peek().kind == tokSemi {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %q after statement", p.peek().text)
	}
	return st, nil
}

type parser struct {
	toks []token
	pos  int
	sql  string
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("db: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// keyword consumes an identifier token matching kw (case-insensitive).
func (p *parser) keyword(kw string) bool {
	if p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", p.peek().text)
	}
	return p.next().text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.keyword("SELECT"):
		return p.selectStmt()
	case p.keyword("EXEC"), p.keyword("EXECUTE"):
		return p.execStmt()
	case p.keyword("CREATE"):
		return p.createStmt()
	case p.keyword("INSERT"):
		return p.insertStmt()
	case p.keyword("DELETE"):
		return p.deleteStmt()
	case p.keyword("UPDATE"):
		return p.updateStmt()
	default:
		return nil, p.errorf("expected SELECT, EXEC, CREATE, INSERT, DELETE or UPDATE, got %q", p.peek().text)
	}
}

func (p *parser) selectStmt() (Statement, error) {
	st := &SelectStmt{}
	if p.keyword("TOP") {
		if p.peek().kind != tokNumber {
			return nil, p.errorf("TOP needs a number")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad TOP count")
		}
		st.Top = n
	}
	// Projection list: *, plain columns, or aggregate calls.
	if p.peek().kind == tokStar {
		p.next()
	} else {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if fn, isAgg := aggFuncByName(name); isAgg && p.peek().kind == tokLParen {
				p.next()
				var col string
				if p.peek().kind == tokStar {
					p.next()
					col = "*"
				} else {
					if col, err = p.expectIdent(); err != nil {
						return nil, err
					}
				}
				if p.peek().kind != tokRParen {
					return nil, p.errorf("expected ')' closing %s", fn)
				}
				p.next()
				if fn != AggCount && col == "*" {
					return nil, p.errorf("%s(*) is not supported; name a column", fn)
				}
				st.Aggregates = append(st.Aggregates, AggExpr{Fn: fn, Column: col})
			} else {
				st.Columns = append(st.Columns, name)
			}
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(table, "PREDICT") && p.peek().kind == tokLParen {
		// PREDICT may mix a plain column with aggregates under GROUP BY;
		// predictStmt validates the combination itself.
		return p.predictStmt(st)
	}
	if len(st.Aggregates) > 0 && len(st.Columns) > 0 {
		return nil, p.errorf("cannot mix aggregates and plain columns without GROUP BY")
	}
	st.Table = table
	if p.keyword("WHERE") {
		for {
			cond, err := p.condition()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, cond)
			if !p.keyword("AND") {
				break
			}
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.OrderBy = col
		if p.keyword("DESC") {
			st.OrderDesc = true
		} else {
			p.keyword("ASC") // optional
		}
		if len(st.Aggregates) > 0 {
			return nil, p.errorf("ORDER BY is meaningless with aggregate projections")
		}
	}
	return st, nil
}

// predictStmt parses the remainder of SELECT ... FROM PREDICT(...); sel
// carries the already-parsed projection list. The opening '(' is the
// current token.
func (p *parser) predictStmt(sel *SelectStmt) (Statement, error) {
	if sel.Top != 0 {
		return nil, p.errorf("TOP is not supported with PREDICT")
	}
	p.next() // consume '('
	st := &PredictStmt{
		Params:     map[string]Literal{},
		Columns:    sel.Columns,
		Aggregates: sel.Aggregates,
	}
	for p.peek().kind == tokAtIdent {
		name := p.next().text
		if p.peek().kind != tokEq {
			return nil, p.errorf("expected '=' after @%s", name)
		}
		p.next()
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		if _, dup := st.Params[name]; dup {
			return nil, p.errorf("duplicate parameter @%s", name)
		}
		st.Params[name] = lit
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if len(st.Params) == 0 {
		return nil, p.errorf("PREDICT needs at least @model and @data parameters")
	}
	if p.peek().kind != tokRParen {
		return nil, p.errorf("expected ')' closing PREDICT, got %q", p.peek().text)
	}
	p.next()
	if p.keyword("WHERE") {
		for {
			cond, err := p.condition()
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, cond)
			if !p.keyword("AND") {
				break
			}
		}
	}
	if p.keyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.GroupBy = col
	}
	if len(st.Columns) > 0 && len(st.Aggregates) > 0 && st.GroupBy == "" {
		return nil, p.errorf("cannot mix aggregates and plain columns without GROUP BY")
	}
	return st, nil
}

// ParseConditionList parses a bare predicate list "col <op> lit [AND ...]"
// — the value format of sp_score_model's @where parameter — with the same
// grammar as a WHERE clause.
func ParseConditionList(s string) ([]Condition, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sql: s}
	var conds []Condition
	for {
		cond, err := p.condition()
		if err != nil {
			return nil, err
		}
		conds = append(conds, cond)
		if !p.keyword("AND") {
			break
		}
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected %q after predicate", p.peek().text)
	}
	return conds, nil
}

// FormatConditions renders conditions canonically ("col <op> value AND ...")
// so equal predicates format identically: the spelling of @where on the
// router's wire and in trace attributes.
func FormatConditions(conds []Condition) string {
	if len(conds) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range conds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(c.Column)
		b.WriteByte(' ')
		b.WriteString(c.Op)
		b.WriteByte(' ')
		if c.Value.IsString {
			b.WriteByte('\'')
			b.WriteString(strings.ReplaceAll(c.Value.S, "'", "''"))
			b.WriteByte('\'')
		} else {
			b.WriteString(strconv.FormatFloat(c.Value.N, 'g', -1, 64))
		}
	}
	return b.String()
}

// aggFuncByName maps an identifier to an aggregate function.
func aggFuncByName(name string) (AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	default:
		return 0, false
	}
}

func (p *parser) condition() (Condition, error) {
	col, err := p.expectIdent()
	if err != nil {
		return Condition{}, err
	}
	var op string
	switch p.peek().kind {
	case tokEq:
		op = "="
	case tokNe:
		op = "<>"
	case tokLt:
		op = "<"
	case tokLe:
		op = "<="
	case tokGt:
		op = ">"
	case tokGe:
		op = ">="
	default:
		return Condition{}, p.errorf("expected comparison operator, got %q", p.peek().text)
	}
	p.next()
	lit, err := p.literal()
	if err != nil {
		return Condition{}, err
	}
	return Condition{Column: col, Op: op, Value: lit}, nil
}

func (p *parser) literal() (Literal, error) {
	switch p.peek().kind {
	case tokNumber:
		t := p.next()
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Literal{}, p.errorf("bad number %q", t.text)
		}
		return Literal{N: n}, nil
	case tokString:
		return Literal{IsString: true, S: p.next().text}, nil
	default:
		return Literal{}, p.errorf("expected literal, got %q", p.peek().text)
	}
}

func (p *parser) execStmt() (Statement, error) {
	proc, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ExecStmt{Proc: proc, Params: map[string]Literal{}}
	for p.peek().kind == tokAtIdent {
		name := p.next().text
		if p.peek().kind != tokEq {
			return nil, p.errorf("expected '=' after @%s", name)
		}
		p.next()
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		if _, dup := st.Params[name]; dup {
			return nil, p.errorf("duplicate parameter @%s", name)
		}
		st.Params[name] = lit
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	return st, nil
}
