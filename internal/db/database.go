package db

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"accelscore/internal/forest"
	"accelscore/internal/model"
)

// Typed catalog errors. Callers branch on these with errors.Is — the serving
// layer maps them to client errors rather than retrying or degrading, since
// a missing object is a logical failure no other backend can fix.
var (
	// ErrTableNotFound reports a lookup of a table the catalog doesn't hold.
	ErrTableNotFound = errors.New("table not found")
	// ErrModelNotFound reports a lookup of a model the store doesn't hold.
	ErrModelNotFound = errors.New("model not found")
	// ErrJournal marks a write the journal refused (a failed fsync, a closed
	// WAL): nothing was applied, and it is the server's failure, not the
	// statement's. The journal's own error is wrapped beside it.
	ErrJournal = errors.New("db: journaling")
)

// ModelsTable is the reserved table holding serialized models, mirroring the
// paper's Fig. 3 pattern of selecting a model blob from a "models" table.
const ModelsTable = "models"

// Database is an in-memory catalog of tables plus the model store. It is
// safe for concurrent use.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// js holds the optional durability journal (see journal.go). Guarded by
	// its own lock, not d.mu, so reading it never interacts with catalog
	// locking.
	js journalState
}

// New returns an empty database with the reserved models table created.
func New() *Database {
	d := &Database{tables: make(map[string]*Table)}
	models, err := NewTable(ModelsTable, []Column{
		{Name: "name", Type: TextCol},
		{Name: "model", Type: BlobCol},
	})
	if err != nil {
		panic(err) // static schema; cannot fail
	}
	d.tables[ModelsTable] = models
	return d
}

// CreateTable registers a new table. Tables arrive pre-populated (e.g. via
// TableFromDataset), so the journal record carries the initial rows too.
func (d *Database) CreateTable(t *Table) error {
	j := d.journalRef()
	if j != nil {
		j.BeginOp()
		defer j.EndOp()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.tables[t.Name]; dup {
		return fmt.Errorf("db: table %q already exists", t.Name)
	}
	if j != nil {
		t.rowsMu.RLock()
		rows := t.rowsLocked()
		t.rowsMu.RUnlock()
		if err := j.LogCreateTable(t.Name, t.Columns, rows); err != nil {
			return fmt.Errorf("%w CREATE TABLE %q: %w", ErrJournal, t.Name, err)
		}
	}
	d.tables[t.Name] = t
	return nil
}

// Table returns the named table.
func (d *Database) Table(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: table %q: %w", name, ErrTableNotFound)
	}
	return t, nil
}

// TableNames lists tables in sorted order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StoreModel serializes the forest and inserts it into the models table
// under the given name.
func (d *Database) StoreModel(name string, f *forest.Forest) error {
	blob, err := model.Marshal(f)
	if err != nil {
		return err
	}
	return d.StoreModelBlob(name, blob)
}

// StoreModelBlob inserts a pre-serialized model blob.
func (d *Database) StoreModelBlob(name string, blob []byte) error {
	if name == "" {
		return fmt.Errorf("db: model needs a name")
	}
	j := d.journalRef()
	if j != nil {
		j.BeginOp()
		defer j.EndOp()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tables[ModelsTable]
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	if idx := t.ColumnIndex("name"); idx >= 0 {
		for r := 0; r < t.numRowsLocked(); r++ {
			if t.cellLocked(r, idx).S == name {
				return fmt.Errorf("db: model %q already stored", name)
			}
		}
	}
	if j != nil {
		if err := j.LogModelStore(name, blob); err != nil {
			return fmt.Errorf("%w model %q: %w", ErrJournal, name, err)
		}
	}
	t.appendLocked([][]Value{{Text(name), Blob(blob)}})
	return nil
}

// DeleteModel removes a stored model. Replacing a model (delete + store
// under the same name) changes the blob checksum, which is what downstream
// compiled-model caches key invalidation on.
func (d *Database) DeleteModel(name string) error {
	j := d.journalRef()
	if j != nil {
		j.BeginOp()
		defer j.EndOp()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tables[ModelsTable]
	t.rowsMu.Lock()
	defer t.rowsMu.Unlock()
	nameIdx := t.ColumnIndex("name")
	for r := 0; r < t.numRowsLocked(); r++ {
		if t.cellLocked(r, nameIdx).S == name {
			if j != nil {
				if err := j.LogModelDelete(name); err != nil {
					return fmt.Errorf("%w model delete %q: %w", ErrJournal, name, err)
				}
			}
			t.dropRowsLocked([]int{r})
			return nil
		}
	}
	return fmt.Errorf("db: model %q: %w", name, ErrModelNotFound)
}

// LoadModelBlob fetches a model's serialized bytes — the DBMS-side half of
// the pipeline's "model pre-processing" stage; deserialization happens in
// the external runtime.
func (d *Database) LoadModelBlob(name string) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t := d.tables[ModelsTable]
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	nameIdx, blobIdx := t.ColumnIndex("name"), t.ColumnIndex("model")
	for r := 0; r < t.numRowsLocked(); r++ {
		if t.cellLocked(r, nameIdx).S == name {
			return t.cellLocked(r, blobIdx).B, nil
		}
	}
	return nil, fmt.Errorf("db: model %q: %w", name, ErrModelNotFound)
}

// ModelNames lists stored model names in insertion order.
func (d *Database) ModelNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t := d.tables[ModelsTable]
	t.rowsMu.RLock()
	defer t.rowsMu.RUnlock()
	idx := t.ColumnIndex("name")
	out := make([]string, 0, t.numRowsLocked())
	for r := 0; r < t.numRowsLocked(); r++ {
		out = append(out, t.cellLocked(r, idx).S)
	}
	return out
}
