// Package tensor implements a minimal dense float32 matrix library.
//
// It exists to support the Hummingbird-style GPU backend, which compiles
// decision forests into a sequence of matrix operations (see Nakandala et
// al., OSDI 2020, cited by the paper as [30]). Only the operations that the
// GEMM compilation strategy needs are provided: matrix multiply and
// broadcast comparison. Everything is row-major and backed by a single flat
// slice so the simulated GPU can also reason about memory footprints.
package tensor

import (
	"fmt"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// New returns a zero-initialized Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) {
	m.Data[r*m.Cols+c] = v
}

// MatMul returns a * b. It panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	// ikj loop order keeps the inner loop streaming over contiguous rows of
	// b and out, which matters once the Hummingbird path multiplies
	// (records x features) by (features x internalNodes) matrices.
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// LessBroadcast returns a matrix g where g[i][j] = 1 if m[i][j] < row[j],
// else 0. row must have length m.Cols. This implements Hummingbird's
// threshold-comparison step (inputs vs per-node split thresholds).
func LessBroadcast(m *Matrix, row []float32) *Matrix {
	if len(row) != m.Cols {
		panic(fmt.Sprintf("tensor: LessBroadcast row length %d != cols %d", len(row), m.Cols))
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			if m.Data[base+j] < row[j] {
				out.Data[base+j] = 1
			}
		}
	}
	return out
}

// EqualBroadcast returns g where g[i][j] = 1 if m[i][j] == row[j], else 0.
// Hummingbird uses it to match the evaluated path vector against each leaf's
// expected path signature.
func EqualBroadcast(m *Matrix, row []float32) *Matrix {
	if len(row) != m.Cols {
		panic(fmt.Sprintf("tensor: EqualBroadcast row length %d != cols %d", len(row), m.Cols))
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			if m.Data[base+j] == row[j] {
				out.Data[base+j] = 1
			}
		}
	}
	return out
}

// Bincount tallies non-negative integer values into a histogram of at least
// minLength buckets, growing as needed — the batch aggregation primitive
// behind fused GROUP BY prediction when the backend returns materialized
// predictions instead of class counts. Negative values are ignored.
func Bincount(xs []int, minLength int) []int64 {
	out := make([]int64, minLength)
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x >= len(out) {
			grown := make([]int64, x+1)
			copy(grown, out)
			out = grown
		}
		out[x]++
	}
	return out
}
