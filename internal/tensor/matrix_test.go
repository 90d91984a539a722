package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func randomMatrix(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero data")
		}
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrom(2, 2, []float32{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	row[0] = 3 // Row shares storage
	if m.At(1, 0) != 3 {
		t.Fatal("Row must share storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Fill(1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFrom(2, 2, []float32{1, 2, 3, 4})
	b := NewFrom(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	want := []float32{11, 22, 33, 44}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Add[%d] = %v want %v", i, a.Data[i], w)
		}
	}
	a.Sub(b)
	for i, w := range []float32{1, 2, 3, 4} {
		if a.Data[i] != w {
			t.Fatalf("Sub[%d] = %v want %v", i, a.Data[i], w)
		}
	}
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Fatalf("Scale: %v", a.At(1, 1))
	}
	a.AddScaled(b, 0.5)
	if a.At(0, 0) != 2+5 {
		t.Fatalf("AddScaled: %v", a.At(0, 0))
	}
	a.Hadamard(b)
	if a.At(0, 0) != 70 {
		t.Fatalf("Hadamard: %v", a.At(0, 0))
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestNorms(t *testing.T) {
	m := NewFrom(1, 2, []float32{3, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
	if got := m.Sum(); got != 7 {
		t.Fatalf("Sum = %v", got)
	}
	m.Set(0, 0, -9)
	if m.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestHStackAndSplit(t *testing.T) {
	a := NewFrom(2, 2, []float32{1, 2, 3, 4})
	b := NewFrom(2, 1, []float32{5, 6})
	h := HStackRows(a, b)
	if h.Rows != 2 || h.Cols != 3 {
		t.Fatalf("HStack shape %dx%d", h.Rows, h.Cols)
	}
	if h.At(0, 2) != 5 || h.At(1, 2) != 6 || h.At(1, 1) != 4 {
		t.Fatalf("HStack contents wrong: %v", h.Data)
	}
	l, r := SplitCols(h, 2)
	if !l.Equal(a, 0) || !r.Equal(b, 0) {
		t.Fatal("SplitCols must invert HStackRows")
	}
}

func TestGatherScatterRows(t *testing.T) {
	src := NewFrom(3, 2, []float32{1, 1, 2, 2, 3, 3})
	g := GatherRows(src, []int32{2, 0, 2})
	want := []float32{3, 3, 1, 1, 3, 3}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("Gather[%d] = %v want %v", i, g.Data[i], w)
		}
	}
	dst := New(3, 2)
	ScatterAddRows(dst, g, []int32{0, 0, 1})
	if dst.At(0, 0) != 4 || dst.At(1, 0) != 3 || dst.At(2, 0) != 0 {
		t.Fatalf("ScatterAdd wrong: %v", dst.Data)
	}
	dst2 := New(3, 2)
	ScatterRows(dst2, g, []int32{1, 2, 0})
	if dst2.At(1, 0) != 3 || dst2.At(2, 0) != 1 || dst2.At(0, 0) != 3 {
		t.Fatalf("ScatterRows wrong: %v", dst2.Data)
	}
}

// naiveMatMul is the reference implementation for property tests.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(70)
		k := 1 + rng.Intn(70)
		m := 1 + rng.Intn(70)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, k, m)
		out := New(n, m)
		MatMul(out, a, b)
		want := naiveMatMul(a, b)
		if !out.Equal(want, 1e-3) {
			t.Fatalf("trial %d (%dx%dx%d): MatMul mismatch", trial, n, k, m)
		}
	}
}

func TestMatMulLargeParallel(t *testing.T) {
	rng := NewRNG(2)
	a := randomMatrix(rng, 300, 40)
	b := randomMatrix(rng, 40, 50)
	out := New(300, 50)
	MatMul(out, a, b)
	want := naiveMatMul(a, b)
	if !out.Equal(want, 1e-3) {
		t.Fatal("parallel MatMul mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, m, k)
		out := New(n, m)
		MatMulTransBRows(out, a, b, allRows(out.Rows))
		want := naiveMatMul(a, Transpose(b))
		if !out.Equal(want, 1e-3) {
			t.Fatalf("trial %d: MatMulTransBRows mismatch", trial)
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := NewRNG(4)
	for trial := 0; trial < 10; trial++ {
		k := 1 + rng.Intn(400) // exercise the parallel reduction path
		n := 1 + rng.Intn(30)
		m := 1 + rng.Intn(30)
		a := randomMatrix(rng, k, n)
		b := randomMatrix(rng, k, m)
		out := New(n, m)
		MatMulTransA(out, a, b)
		want := naiveMatMul(Transpose(a), b)
		if !out.Equal(want, 1e-2) {
			t.Fatalf("trial %d (k=%d): MatMulTransA mismatch", trial, k)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		return Transpose(Transpose(m)).Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGFloatRanges(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := rng.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if f := rng.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(8)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(9)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("duplicate in Perm")
		}
		seen[v] = true
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := NewRNG(10)
	m := New(30, 40)
	XavierInit(m, 30, 40, rng)
	bound := float32(math.Sqrt(6.0/70.0)) + 1e-6
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
	if m.MaxAbs() == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}

func TestIntnUniform(t *testing.T) {
	rng := NewRNG(11)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[rng.Intn(4)]++
	}
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Fatalf("Intn bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(12)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d identical draws", same)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := NewFrom(1, 2, []float32{1, 2})
	b := NewFrom(1, 2, []float32{1.0005, 2})
	if !a.Equal(b, 1e-3) {
		t.Fatal("Equal should accept within tolerance")
	}
	if a.Equal(b, 1e-5) {
		t.Fatal("Equal should reject outside tolerance")
	}
	if a.Equal(New(2, 1), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}
