// Row-selection bitmaps. The fused query path evaluates pushed-down
// predicates block-wise and records survivors in a Selection. scoreRange
// reads it a 64-bit word at a time, gathering survivors into blocks of rows
// to score: a zero word costs one load and no tree node is touched for it.
package kernel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// PredOp enumerates the comparison operators a pushed-down predicate may
// use. The numeric semantics mirror the SQL layer's comparisons (including
// the epsilon applied to = and <>) so a fused filter selects exactly the
// rows a post-scoring WHERE would keep.
type PredOp uint8

const (
	PredEQ PredOp = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

// predEps matches the SQL layer's equality tolerance for REAL comparisons.
const predEps = 1e-9

// predOpSQL spells each operator in SQL syntax, both ways.
var predOpSQL = [...]string{PredEQ: "=", PredNE: "<>", PredLT: "<", PredLE: "<=", PredGT: ">", PredGE: ">="}

// String renders the operator in SQL syntax.
func (op PredOp) String() string {
	if int(op) < len(predOpSQL) {
		return predOpSQL[op]
	}
	return "?"
}

// ParsePredOp maps a SQL comparison operator to its PredOp.
func ParsePredOp(op string) (PredOp, error) {
	if i := slices.Index(predOpSQL[:], op); i >= 0 {
		return PredOp(i), nil
	}
	return 0, fmt.Errorf("kernel: unsupported predicate operator %q", op)
}

// evalPred applies op between a row value and the predicate constant with
// the SQL layer's semantics: = and <> compare within predEps, and every
// comparison involving NaN is false (so NaN rows never match, on either the
// fused or the post-filter path).
func evalPred(a float64, op PredOp, b float64) bool {
	switch op {
	case PredEQ:
		return math.Abs(a-b) <= predEps
	case PredNE:
		return math.Abs(a-b) > predEps
	case PredLT:
		return a < b
	case PredLE:
		return a <= b
	case PredGT:
		return a > b
	case PredGE:
		return a >= b
	}
	return false
}

// Predicate is one pushed-down conjunct. When Feature >= 0 the operand is
// read straight out of the row-major feature matrix the kernel already
// streams (true fusion: no separate column pass). Otherwise Col supplies
// the operand values for a non-feature column, one per row.
type Predicate struct {
	Feature int       // feature index into the row, or -1 to use Col
	Col     []float64 // operand column when Feature < 0; len >= row count
	Op      PredOp
	Value   float64
}

// Selection is an immutable row bitmap of 64-bit words (word b covers rows
// [64b, 64b+64)). prefix[b] counts selected rows before word b, which lets
// parallel workers compute dense output offsets without coordination.
type Selection struct {
	words  []uint64
	prefix []int32 // len == len(words)+1
	n      int
}

// selWordBits is the bitmap word width; rowBlockSize must be a multiple of
// it so that a worker's row range never starts inside a word.
const selWordBits = 64

// StripeRows is the rows one selection word covers, a partition stripe's unit.
const StripeRows = selWordBits

// BuildSelection evaluates the conjunction of preds over n rows of the
// row-major matrix x (features values per row): FilterSelection of all rows.
func BuildSelection(n int, preds []Predicate, x []float32, features int) *Selection {
	return FilterSelection(nil, n, preds, x, features)
}

// FilterSelection narrows base (nil = all n rows of x) to the rows meeting
// every predicate, evaluated over base's rows only, a word at a time, each
// predicate on the bits the ones before it kept. With no predicates it keeps
// base's rows; x may be nil when every predicate reads an aux column.
func FilterSelection(base *Selection, n int, preds []Predicate, x []float32, features int) *Selection {
	s := newSelection(n)
	for b := range s.words {
		w := ^uint64(0) >> max(0, (b+1)*selWordBits-n)
		if base != nil {
			w = base.words[b]
		}
		for _, p := range preds {
			for m := w; m != 0; m &= m - 1 {
				r := b*selWordBits + bits.TrailingZeros64(m)
				var a float64
				if p.Feature >= 0 {
					a = float64(x[r*features+p.Feature])
				} else {
					a = p.Col[r]
				}
				if !evalPred(a, p.Op, p.Value) {
					w &^= m & -m // row r's bit, m's lowest
				}
			}
		}
		s.words[b] = w
	}
	s.finalize()
	return s
}

// SelectionFromFunc builds a bitmap from an arbitrary keep function, for
// selections the predicate builder would not produce.
func SelectionFromFunc(n int, keep func(row int) bool) *Selection {
	s := newSelection(n)
	for r := 0; r < n; r++ {
		if keep(r) {
			s.words[r/selWordBits] |= 1 << (r % selWordBits)
		}
	}
	s.finalize()
	return s
}

// StripeSelection narrows base (nil = every row) over rows rows to stripe k
// of n: the words b with b % n == k, set whole and masked by base's.
func StripeSelection(base *Selection, rows, k, n int) *Selection {
	s := newSelection(rows)
	for b := k; b < len(s.words); b += n {
		s.words[b] = ^uint64(0) >> max(0, (b+1)*selWordBits-rows)
		if base != nil {
			s.words[b] &= base.words[b]
		}
	}
	s.finalize()
	return s
}

func newSelection(n int) *Selection {
	if n < 0 {
		n = 0
	}
	nw := (n + selWordBits - 1) / selWordBits
	return &Selection{words: make([]uint64, nw), n: n}
}

func (s *Selection) finalize() {
	s.prefix = make([]int32, len(s.words)+1)
	var c int32
	for i, w := range s.words {
		s.prefix[i] = c
		c += int32(bits.OnesCount64(w))
	}
	s.prefix[len(s.words)] = c
}

// Len returns the number of rows the selection covers.
func (s *Selection) Len() int { return s.n }

// Count returns the number of selected rows.
func (s *Selection) Count() int {
	if len(s.prefix) == 0 {
		return 0
	}
	return int(s.prefix[len(s.prefix)-1])
}

// Selected reports whether row i survives the filter.
func (s *Selection) Selected(i int) bool {
	return s.words[i/selWordBits]&(1<<uint(i%selWordBits)) != 0
}

// Rank returns the number of selected rows strictly before row i. i may
// equal Len(), in which case Rank returns Count().
func (s *Selection) Rank(i int) int {
	if i >= s.n {
		return s.Count()
	}
	w := i / selWordBits
	mask := uint64(1)<<uint(i%selWordBits) - 1
	return int(s.prefix[w]) + bits.OnesCount64(s.words[w]&mask)
}

// ForEach calls fn for every selected row in ascending order, passing the
// row index and its dense rank (0-based position among selected rows).
// Per-row engines use it to skip dead rows without bitmap arithmetic.
func (s *Selection) ForEach(fn func(row, rank int)) {
	rank := 0
	for b, w := range s.words {
		base := b * selWordBits
		for w != 0 {
			fn(base+bits.TrailingZeros64(w), rank)
			rank++
			w &= w - 1
		}
	}
}
