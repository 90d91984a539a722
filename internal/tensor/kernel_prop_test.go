package tensor

import (
	"math"
	"sync/atomic"
	"testing"
)

// propShapes are deliberately awkward: 1 exercises degenerate loops, 3 and 7
// the scalar tails (below one SIMD vector), 65 and 129 the
// one-past-a-power-of-two cases that hit both the 16-wide main loop, the
// 8-wide block and the scalar tail of the assembly kernels.
var propShapes = []int{1, 3, 7, 65, 129}

// refMatMul is an order-obvious reference: out[i][j] = Σ_k a[i][k]*b[k][j]
// accumulated in float64 to give a tolerance anchor for the FMA kernels.
func refMatMul(a, b *Matrix) *Matrix {
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

func maxRelErr(got, want *Matrix) float64 {
	var worst float64
	for i, v := range got.Data {
		w := want.Data[i]
		d := math.Abs(float64(v - w))
		scale := 1 + math.Abs(float64(w))
		if e := d / scale; e > worst {
			worst = e
		}
	}
	return worst
}

func TestMatMulPropertyOddShapes(t *testing.T) {
	rng := NewRNG(101)
	for _, n := range propShapes {
		for _, k := range propShapes {
			for _, m := range propShapes {
				a := randomMatrix(rng, n, k)
				b := randomMatrix(rng, k, m)
				got := New(n, m)
				MatMul(got, a, b)
				want := refMatMul(a, b)
				if e := maxRelErr(got, want); e > 1e-5 {
					t.Fatalf("MatMul %dx%dx%d: max rel err %g", n, k, m, e)
				}
			}
		}
	}
}

func TestMatMulTransBPropertyOddShapes(t *testing.T) {
	rng := NewRNG(102)
	for _, n := range propShapes {
		for _, k := range propShapes {
			for _, m := range propShapes {
				a := randomMatrix(rng, n, k)
				b := randomMatrix(rng, m, k)
				got := New(n, m)
				MatMulTransBRows(got, a, b, allRows(n))
				want := refMatMul(a, Transpose(b))
				if e := maxRelErr(got, want); e > 1e-5 {
					t.Fatalf("MatMulTransBRows %dx%dx%d: max rel err %g", n, k, m, e)
				}
			}
		}
	}
}

func TestMatMulTransAPropertyOddShapes(t *testing.T) {
	rng := NewRNG(103)
	for _, n := range propShapes {
		for _, k := range propShapes {
			for _, m := range propShapes {
				a := randomMatrix(rng, k, n)
				b := randomMatrix(rng, k, m)
				got := New(n, m)
				MatMulTransA(got, a, b)
				want := refMatMul(Transpose(a), b)
				if e := maxRelErr(got, want); e > 1e-5 {
					t.Fatalf("MatMulTransA %dx%dx%d: max rel err %g", n, k, m, e)
				}
			}
		}
	}
}

// TestKernelsSkipZeroPanels pins the dropout-sparsity fast path: zeroed
// four-entry panels of a must not perturb the result.
func TestKernelsSkipZeroPanels(t *testing.T) {
	rng := NewRNG(104)
	a := randomMatrix(rng, 65, 129)
	for i := range a.Data {
		if rng.Float32() < 0.5 {
			a.Data[i] = 0
		}
	}
	b := randomMatrix(rng, 129, 65)
	got := New(65, 65)
	MatMul(got, a, b)
	if e := maxRelErr(got, refMatMul(a, b)); e > 1e-5 {
		t.Fatalf("sparse MatMul: max rel err %g", e)
	}
}

func TestVectorPrimitives(t *testing.T) {
	rng := NewRNG(105)
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 129} {
		dst := make([]float32, n)
		src := make([]float32, n)
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			dst[i] = rng.Float32()
			src[i] = rng.Float32()
			want[i] = dst[i] + 2.5*src[i]
		}
		Axpy(dst, src, 2.5)
		for i := range dst {
			if math.Abs(float64(dst[i]-want[i])) > 1e-5 {
				t.Fatalf("Axpy n=%d elem %d: got %v want %v", n, i, dst[i], want[i])
			}
		}
		AddTo(dst, src)
		for i := range dst {
			if math.Abs(float64(dst[i]-(want[i]+src[i]))) > 1e-5 {
				t.Fatalf("AddTo n=%d elem %d", n, i)
			}
		}
	}
}

func TestTransposeIntoOddShapes(t *testing.T) {
	rng := NewRNG(106)
	for _, r := range []int{1, 5, 31, 32, 33, 100} {
		for _, c := range []int{1, 7, 32, 65} {
			a := randomMatrix(rng, r, c)
			out := New(c, r)
			TransposeInto(out, a)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					if out.At(j, i) != a.At(i, j) {
						t.Fatalf("transpose %dx%d mismatch at (%d,%d)", r, c, i, j)
					}
				}
			}
		}
	}
}

func TestTransposeIntoRejectsBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransposeInto(New(3, 3), New(3, 4))
}

func TestWorkspaceReusesSteadyState(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(33, 17)
	s1 := ws.GetF32(100)
	p1, q1 := &m1.Data[0], &s1[0]
	ws.Reset()
	m2 := ws.Get(33, 17)
	s2 := ws.GetF32(100)
	if &m2.Data[0] != p1 || &s2[0] != q1 {
		t.Fatal("workspace did not reuse buffers after Reset")
	}
	// Distinctness within one cycle.
	m3 := ws.Get(33, 17)
	if &m3.Data[0] == &m2.Data[0] {
		t.Fatal("workspace handed out the same buffer twice without Reset")
	}
	// Put returns a buffer for immediate reuse.
	ws.Put(m3)
	m4 := ws.Get(30, 18) // same size class
	if &m4.Data[0] != &m3.Data[0] {
		t.Fatal("Put buffer was not reused by the next same-class Get")
	}
	ws.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		ws.Get(33, 17)
		ws.Get(33, 17)
		ws.GetF32(100)
		ws.Reset()
	})
	if allocs > 0 {
		t.Fatalf("steady-state workspace cycle allocates %v objects", allocs)
	}
}

func TestWorkspaceZeroSizes(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(0, 5)
	if m.Rows != 0 || len(m.Data) != 0 {
		t.Fatal("zero-row matrix malformed")
	}
	s := ws.GetF32(0)
	if len(s) != 0 {
		t.Fatal("zero-length slice malformed")
	}
	ws.PutF32(s)
	ws.Put(m)
	ws.Reset()
	z := ws.GetZeroed(4, 4)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("GetZeroed returned non-zero data")
		}
	}
}

// TestParallelRowsCoversAllRows drives the pooled worker path directly
// (it is inline on single-CPU machines) to check the atomic cursor hands
// out every chunk exactly once.
func TestParallelRowsCoversAllRows(t *testing.T) {
	for _, rows := range []int{1, rowBlock, rowBlock + 1, 10*rowBlock + 3} {
		counts := make([]int32, rows)
		parallelRows(rows, func(lo, hi int) {
			if lo < 0 || hi > rows || lo >= hi {
				t.Errorf("bad chunk [%d,%d) for %d rows", lo, hi, rows)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		for i := range counts {
			if c := atomic.LoadInt32(&counts[i]); c != 1 {
				t.Fatalf("rows=%d: row %d covered %d times", rows, i, c)
			}
		}
	}
}
