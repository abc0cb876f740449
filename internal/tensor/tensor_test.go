package tensor

import (
	"testing"
	"testing/quick"

	"accelscore/internal/xrand"
)

func randomMatrix(r *xrand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Float32()*2 - 1
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float32{7, 8, 9, 10, 11, 12}}
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Rows != 2 || c.Cols != 2 || c.Data[i] != want[i] {
			t.Fatalf("MatMul = %dx%d %v, want 2x2 %v", c.Rows, c.Cols, c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := xrand.New(5)
	m := randomMatrix(r, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	got := MatMul(m, id)
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("m*I != m at %d: %v vs %v", i, got.Data[i], m.Data[i])
		}
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := xrand.New(6)
	for trial := 0; trial < 20; trial++ {
		ar, ac, bc := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(r, ar, ac)
		b := randomMatrix(r, ac, bc)
		got := MatMul(a, b)
		for i := 0; i < ar; i++ {
			for j := 0; j < bc; j++ {
				var want float32
				for k := 0; k < ac; k++ {
					want += a.Data[i*ac+k] * b.Data[k*bc+j]
				}
				diff := got.Data[i*bc+j] - want
				if diff < -1e-4 || diff > 1e-4 {
					t.Fatalf("trial %d: (%d,%d) = %v, want %v", trial, i, j, got.Data[i*bc+j], want)
				}
			}
		}
	}
}

func TestLessBroadcast(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float32{1, 5, 3, 2}}
	g := LessBroadcast(m, []float32{2, 3})
	want := []float32{1, 0, 0, 1}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("LessBroadcast = %v, want %v", g.Data, want)
		}
	}
}

func TestEqualBroadcast(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float32{1, 0, 1, 1}}
	g := EqualBroadcast(m, []float32{1, 1})
	want := []float32{1, 0, 1, 1}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("EqualBroadcast = %v, want %v", g.Data, want)
		}
	}
}

// Property: (a+b)*c == a*c + b*c within float tolerance.
func TestMatMulDistributive(t *testing.T) {
	r := xrand.New(8)
	f := func(seed uint8) bool {
		rr := xrand.New(uint64(seed) + 1)
		a := randomMatrix(rr, 3, 4)
		b := randomMatrix(rr, 3, 4)
		c := randomMatrix(rr, 4, 2)
		sum := New(3, 4)
		for i := range sum.Data {
			sum.Data[i] = a.Data[i] + b.Data[i]
		}
		left, ac, bc := MatMul(sum, c), MatMul(a, c), MatMul(b, c)
		for i := range left.Data {
			d := left.Data[i] - (ac.Data[i] + bc.Data[i])
			if d < -1e-4 || d > 1e-4 {
				return false
			}
		}
		_ = r
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := xrand.New(1)
	a := randomMatrix(r, 128, 128)
	c := randomMatrix(r, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

func BenchmarkLessBroadcast(b *testing.B) {
	r := xrand.New(2)
	m := randomMatrix(r, 1024, 28)
	row := make([]float32, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LessBroadcast(m, row)
	}
}
