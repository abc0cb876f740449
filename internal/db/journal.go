package db

// Journal receives every catalog/data mutation before it is applied, so a
// storage engine can make the database durable without the db package
// importing it (internal/storage implements Journal and imports db, not the
// other way around).
//
// Contract: each mutation path calls BeginOp, then the matching Log method
// while holding the target table's write lock (so WAL order equals apply
// order), applies the mutation only if Log returned nil, and finally calls
// EndOp after releasing the lock. A Log error aborts the mutation — the
// caller never acknowledges a write the journal did not persist. BeginOp /
// EndOp bracket the whole operation so the engine can quiesce writers (e.g.
// while writing a compaction snapshot); they must be cheap and may block.
//
// Log methods receive plain data (names, schemas, row values, logical
// statements, a TableView whose vectors no writer touches), never a live
// *Table, so implementations need no knowledge of db locking.
type Journal interface {
	BeginOp()
	EndOp()
	// LogCreateTable records a new table with its initial rows (seeding via
	// TableFromDataset registers pre-populated tables).
	LogCreateTable(v TableView) error
	// LogInsert records rows appended to an existing table. The schema is
	// passed along so the implementation never needs a catalog lookup (the
	// caller holds the table's write lock; touching d.mu here could
	// deadlock against model-store paths that take d.mu before a table
	// lock).
	LogInsert(table string, cols []Column, rows [][]Value) error
	// LogUpdate records a logical UPDATE; replay re-executes it against the
	// identical pre-state, so the same rows match deterministically.
	LogUpdate(st *UpdateStmt) error
	// LogDelete records a logical DELETE.
	LogDelete(st *DeleteStmt) error
	// LogModelStore records a model blob insert.
	LogModelStore(name string, blob []byte) error
	// LogModelDelete records a model removal.
	LogModelDelete(name string) error
}

// nopJournal stands in while no journal is attached: every Log succeeds.
type nopJournal struct{}

func (nopJournal) BeginOp()                                    {}
func (nopJournal) EndOp()                                      {}
func (nopJournal) LogCreateTable(TableView) error              { return nil }
func (nopJournal) LogInsert(string, []Column, [][]Value) error { return nil }
func (nopJournal) LogUpdate(*UpdateStmt) error                 { return nil }
func (nopJournal) LogDelete(*DeleteStmt) error                 { return nil }
func (nopJournal) LogModelStore(string, []byte) error          { return nil }
func (nopJournal) LogModelDelete(string) error                 { return nil }

// SetJournal attaches (or, with nil, detaches) the database's journal.
// Attach before the database is reachable by writers: mutations in flight
// during the swap may miss the new journal.
func (d *Database) SetJournal(j Journal) {
	d.jmu.Lock()
	d.journal = j
	d.jmu.Unlock()
}

// beginOp opens a mutation's bracket on the attached journal (a nopJournal
// when there is none) and returns it for the mutation's Log call and EndOp.
func (d *Database) beginOp() Journal {
	d.jmu.RLock()
	j := d.journal
	d.jmu.RUnlock()
	if j == nil {
		j = nopJournal{}
	}
	j.BeginOp()
	return j
}
