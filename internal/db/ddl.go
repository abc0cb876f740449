package db

import (
	"fmt"
	"sort"
	"strings"
)

// CreateStmt is CREATE TABLE name (col TYPE, ...).
type CreateStmt struct {
	Table   string
	Columns []Column
}

func (*CreateStmt) stmt() {}

// InsertStmt is INSERT INTO name VALUES (lit, ...)[, (lit, ...)].
type InsertStmt struct {
	Table string
	Rows  [][]Literal
}

func (*InsertStmt) stmt() {}

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Supported aggregates.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", int(a))
	}
}

// AggExpr is one aggregate projection, e.g. AVG(petal_width). COUNT uses
// Column == "*".
type AggExpr struct {
	Fn     AggFunc
	Column string
}

// parseColumnType maps a T-SQL-ish type name.
func parseColumnType(name string) (ColumnType, error) {
	switch strings.ToUpper(name) {
	case "REAL", "FLOAT":
		return Float32Col, nil
	case "BIGINT", "INT", "INTEGER":
		return Int64Col, nil
	case "NVARCHAR", "VARCHAR", "TEXT":
		return TextCol, nil
	case "VARBINARY", "BLOB":
		return BlobCol, nil
	default:
		return 0, fmt.Errorf("db: unknown column type %q", name)
	}
}

// createStmt parses after the CREATE keyword.
func (p *parser) createStmt() (Statement, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokLParen {
		return nil, p.errorf("expected '(' after table name")
	}
	p.next()
	st := &CreateStmt{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ, err := parseColumnType(typeName)
		if err != nil {
			return nil, p.errorf("%v", err)
		}
		st.Columns = append(st.Columns, Column{Name: col, Type: typ})
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if p.peek().kind != tokRParen {
		return nil, p.errorf("expected ')' closing column list")
	}
	p.next()
	return st, nil
}

// insertStmt parses after the INSERT keyword.
func (p *parser) insertStmt() (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	for {
		if p.peek().kind != tokLParen {
			return nil, p.errorf("expected '(' starting a VALUES row")
		}
		p.next()
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if p.peek().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.peek().kind != tokRParen {
			return nil, p.errorf("expected ')' closing a VALUES row")
		}
		p.next()
		st.Rows = append(st.Rows, row)
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	return st, nil
}

// Create executes a CREATE TABLE statement.
func (d *Database) Create(st *CreateStmt) error {
	t, err := NewTable(st.Table, st.Columns)
	if err != nil {
		return err
	}
	return d.CreateTable(t)
}

// InsertRows executes an INSERT statement, coercing literals to the column
// types. All rows are coerced before any is applied or journaled, so a bad
// statement changes nothing and never reaches the WAL; the statement is one
// mutation (one version step), exactly as its WAL record replays.
func (d *Database) InsertRows(st *InsertStmt) (int, error) {
	t, err := d.Table(st.Table)
	if err != nil {
		return 0, err
	}
	rows := make([][]Value, len(st.Rows))
	for ri, litRow := range st.Rows {
		if len(litRow) != len(t.Columns) {
			return 0, fmt.Errorf("db: INSERT row %d has %d values, table %q has %d columns",
				ri, len(litRow), st.Table, len(t.Columns))
		}
		row := make([]Value, len(litRow))
		for ci, lit := range litRow {
			v, err := coerceLiteral(lit, t.Columns[ci].Type)
			if err != nil {
				return 0, fmt.Errorf("db: INSERT row %d column %q: %w", ri, t.Columns[ci].Name, err)
			}
			row[ci] = v
		}
		rows[ri] = row
	}
	j := d.journalRef()
	if j != nil {
		j.BeginOp()
		defer j.EndOp()
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	if j != nil {
		if err := j.LogInsert(st.Table, t.Columns, rows); err != nil {
			return 0, fmt.Errorf("%w INSERT into %q: %w", ErrJournal, st.Table, err)
		}
	}
	t.appendLocked(rows)
	return len(rows), nil
}

// coerceLiteral converts a parsed literal to a typed cell.
func coerceLiteral(lit Literal, typ ColumnType) (Value, error) {
	switch typ {
	case Float32Col:
		if lit.IsString {
			return Value{}, fmt.Errorf("string literal for REAL column")
		}
		return Float(float32(lit.N)), nil
	case Int64Col:
		if lit.IsString {
			return Value{}, fmt.Errorf("string literal for BIGINT column")
		}
		return Int(int64(lit.N)), nil
	case TextCol:
		if !lit.IsString {
			return Value{}, fmt.Errorf("numeric literal for NVARCHAR column")
		}
		return Text(lit.S), nil
	case BlobCol:
		return Value{}, fmt.Errorf("VARBINARY columns cannot be inserted via SQL literals")
	default:
		return Value{}, fmt.Errorf("unsupported column type")
	}
}

// aggregate executes the aggregate projections of a SELECT over the
// filtered rows and returns a single-row table.
func (d *Database) aggregate(src *Table, rows []int, aggs []AggExpr) (*Table, error) {
	cols := make([]Column, len(aggs))
	out := make([]Value, len(aggs))
	for i, a := range aggs {
		label := fmt.Sprintf("%s(%s)", a.Fn, a.Column)
		if a.Fn == AggCount {
			cols[i] = Column{Name: label, Type: Int64Col}
			out[i] = Int(int64(len(rows)))
			continue
		}
		ci := src.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("db: aggregate column %q does not exist", a.Column)
		}
		typ := src.Columns[ci].Type
		if typ != Float32Col && typ != Int64Col {
			return nil, fmt.Errorf("db: cannot aggregate non-numeric column %q", a.Column)
		}
		cell := func(r int) float64 {
			v := src.cellLocked(r, ci)
			if typ == Float32Col {
				return float64(v.F)
			}
			return float64(v.I)
		}
		if len(rows) == 0 {
			cols[i] = Column{Name: label, Type: Float32Col}
			out[i] = Float(0)
			continue
		}
		var acc float64
		switch a.Fn {
		case AggSum, AggAvg:
			for _, r := range rows {
				acc += cell(r)
			}
			if a.Fn == AggAvg {
				acc /= float64(len(rows))
			}
		case AggMin:
			acc = cell(rows[0])
			for _, r := range rows[1:] {
				if v := cell(r); v < acc {
					acc = v
				}
			}
		case AggMax:
			acc = cell(rows[0])
			for _, r := range rows[1:] {
				if v := cell(r); v > acc {
					acc = v
				}
			}
		}
		cols[i] = Column{Name: label, Type: Float32Col}
		out[i] = Float(float32(acc))
	}
	res, err := NewTable("result", cols)
	if err != nil {
		return nil, err
	}
	if err := res.Insert(out); err != nil {
		return nil, err
	}
	return res, nil
}

// orderRows sorts row indices by the given column.
func orderRows(src *Table, rows []int, column string, desc bool) error {
	ci := src.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("db: ORDER BY column %q does not exist", column)
	}
	typ := src.Columns[ci].Type
	if typ == BlobCol {
		return fmt.Errorf("db: cannot ORDER BY VARBINARY column %q", column)
	}
	less := func(a, b int) bool {
		va, vb := src.cellLocked(a, ci), src.cellLocked(b, ci)
		switch typ {
		case Float32Col:
			return va.F < vb.F
		case Int64Col:
			return va.I < vb.I
		default:
			return va.S < vb.S
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if desc {
			return less(rows[j], rows[i])
		}
		return less(rows[i], rows[j])
	})
	return nil
}

// DeleteStmt is DELETE FROM table [WHERE cond [AND cond]...].
type DeleteStmt struct {
	Table string
	Where []Condition
}

func (*DeleteStmt) stmt() {}

// UpdateStmt is UPDATE table SET col = lit [, col = lit]... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   map[string]Literal
	Where []Condition
}

func (*UpdateStmt) stmt() {}

// deleteStmt parses after the DELETE keyword.
func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
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
	return st, nil
}

// updateStmt parses after the UPDATE keyword.
func (p *parser) updateStmt() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name, Set: map[string]Literal{}}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokEq {
			return nil, p.errorf("expected '=' after column %s", col)
		}
		p.next()
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		if _, dup := st.Set[col]; dup {
			return nil, p.errorf("column %s assigned twice", col)
		}
		st.Set[col] = lit
		if p.peek().kind == tokComma {
			p.next()
			continue
		}
		break
	}
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
	return st, nil
}

// matchRows evaluates WHERE predicates and returns matching row indices.
// Callers hold src.rowsMu (read for SELECT-like scans, write when the match
// feeds a mutation so the matched indices stay valid).
func (d *Database) matchRows(src *Table, where []Condition) ([]int, error) {
	type pred struct {
		col  int
		typ  ColumnType
		cond Condition
	}
	var preds []pred
	for _, c := range where {
		idx := src.ColumnIndex(c.Column)
		if idx < 0 {
			return nil, fmt.Errorf("db: WHERE column %q does not exist in %q", c.Column, src.Name)
		}
		typ := src.Columns[idx].Type
		if typ == BlobCol {
			return nil, fmt.Errorf("db: cannot filter on VARBINARY column %q", c.Column)
		}
		if c.Value.IsString != (typ == TextCol) {
			return nil, fmt.Errorf("db: type mismatch filtering %q", c.Column)
		}
		preds = append(preds, pred{col: idx, typ: typ, cond: c})
	}
	var out []int
	for r := 0; r < src.numRowsLocked(); r++ {
		ok := true
		for _, p := range preds {
			if !evalPred(src.cellLocked(r, p.col), p.typ, p.cond) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// Delete executes a DELETE statement, returning the number of removed rows.
// The match and the mutation happen under one write lock so concurrent
// readers never see half-deleted rows.
func (d *Database) Delete(st *DeleteStmt) (int, error) {
	t, err := d.Table(st.Table)
	if err != nil {
		return 0, err
	}
	j := d.journalRef()
	if j != nil {
		j.BeginOp()
		defer j.EndOp()
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	victims, err := d.matchRows(t, st.Where)
	if err != nil {
		return 0, err
	}
	if len(victims) == 0 {
		return 0, nil
	}
	// Logical logging: replay re-runs the DELETE against the identical
	// pre-state, so it removes exactly these rows. No-op deletes (above)
	// never reach the WAL.
	if j != nil {
		if err := j.LogDelete(st); err != nil {
			return 0, fmt.Errorf("%w DELETE from %q: %w", ErrJournal, st.Table, err)
		}
	}
	t.dropRowsLocked(victims)
	return len(victims), nil
}

// Update executes an UPDATE statement, returning the number of changed rows.
// Match and mutation share one write lock, like Delete.
func (d *Database) Update(st *UpdateStmt) (int, error) {
	t, err := d.Table(st.Table)
	if err != nil {
		return 0, err
	}
	j := d.journalRef()
	if j != nil {
		j.BeginOp()
		defer j.EndOp()
	}
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	set := make(map[int]Value, len(st.Set))
	for col, lit := range st.Set {
		ci := t.ColumnIndex(col)
		if ci < 0 {
			return 0, fmt.Errorf("db: SET column %q does not exist in %q", col, st.Table)
		}
		v, err := coerceLiteral(lit, t.Columns[ci].Type)
		if err != nil {
			return 0, fmt.Errorf("db: SET %s: %w", col, err)
		}
		set[ci] = v
	}
	rows, err := d.matchRows(t, st.Where)
	if err != nil {
		return 0, err
	}
	if len(rows) == 0 {
		return 0, nil
	}
	// Logical logging, same contract as Delete.
	if j != nil {
		if err := j.LogUpdate(st); err != nil {
			return 0, fmt.Errorf("%w UPDATE %q: %w", ErrJournal, st.Table, err)
		}
	}
	t.assignLocked(rows, set)
	return len(rows), nil
}
