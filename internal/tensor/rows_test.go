package tensor

import (
	"testing"
)

// fillSentinel poisons a matrix so untouched-row checks are meaningful.
func fillSentinel(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = -12345.5
	}
}

// allRows is the identity row list [0, n): a full pass of a row-list kernel
// (graph.AggIndex.Ident in the layers).
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// randomSplit partitions [0,n) into two duplicate-free ascending row lists.
func randomSplit(rng *RNG, n int) (a, b []int32) {
	for v := 0; v < n; v++ {
		if rng.Float32() < 0.5 {
			a = append(a, int32(v))
		} else {
			b = append(b, int32(v))
		}
	}
	return a, b
}

// TestMatMulRowsMatchesFull pins the bit-identity contract of the row-list
// kernels: computing any partition of the rows — in two chunks, scattered or
// contiguous sub-slices of the identity list — must reproduce the full
// MatMul exactly, on odd and prime shapes that exercise every tail path.
func TestMatMulRowsMatchesFull(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {7, 13, 11}, {17, 9, 23}, {65, 31, 19}, {130, 67, 37}}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		a := New(n, k)
		b := New(k, m)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		want := New(n, m)
		MatMul(want, a, b)

		got := New(n, m)
		fillSentinel(got)
		rows1, rows2 := randomSplit(rng, n)
		MatMulRows(got, a, b, rows1)
		MatMulRows(got, a, b, rows2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("MatMulRows %dx%dx%d: element %d = %v, want %v", n, k, m, i, got.Data[i], want.Data[i])
			}
		}

		got2 := New(n, m)
		fillSentinel(got2)
		all, cut := allRows(n), n/3
		MatMulRows(got2, a, b, all[:cut])
		MatMulRows(got2, a, b, all[cut:])
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("MatMulRows contiguous %dx%dx%d: element %d = %v, want %v", n, k, m, i, got2.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulTransBRowsMatchesFull is the same contract for out = a·bᵀ, whose
// full pass is the identity list itself (pinned against a naive product by
// TestMatMulTransB).
func TestMatMulTransBRowsMatchesFull(t *testing.T) {
	rng := NewRNG(11)
	shapes := [][3]int{{1, 1, 1}, {5, 3, 7}, {13, 11, 5}, {29, 17, 9}, {67, 23, 41}}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		a := New(n, k)
		b := New(m, k)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		want := New(n, m)
		all := allRows(n)
		MatMulTransBRows(want, a, b, all)

		got := New(n, m)
		fillSentinel(got)
		rows1, rows2 := randomSplit(rng, n)
		MatMulTransBRows(got, a, b, rows1)
		MatMulTransBRows(got, a, b, rows2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("MatMulTransBRows %dx%dx%d: element %d = %v, want %v", n, k, m, i, got.Data[i], want.Data[i])
			}
		}

		got2 := New(n, m)
		fillSentinel(got2)
		cut := (n + 1) / 2
		MatMulTransBRows(got2, a, b, all[:cut])
		MatMulTransBRows(got2, a, b, all[cut:])
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("MatMulTransBRows contiguous %dx%dx%d: element %d = %v, want %v", n, k, m, i, got2.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulRowsLeavesOtherRowsUntouched: a row-subset call must not write a
// single element outside its listed rows (the engine's output matrices hold
// live chunk-1 results while chunk 2 runs).
func TestMatMulRowsLeavesOtherRowsUntouched(t *testing.T) {
	rng := NewRNG(13)
	const n, k, m = 19, 7, 5
	a := New(n, k)
	b := New(k, m)
	bt := New(m, k)
	for i := range a.Data {
		a.Data[i] = float32(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(rng.NormFloat64())
	}
	for i := range bt.Data {
		bt.Data[i] = float32(rng.NormFloat64())
	}
	rows := []int32{2, 3, 11, 17}
	listed := map[int32]bool{}
	for _, v := range rows {
		listed[v] = true
	}
	check := func(name string, got *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if !listed[int32(i/m)] && v != -12345.5 {
				t.Fatalf("%s wrote element %d of unlisted row %d", name, i, i/m)
			}
		}
	}
	got := New(n, m)
	fillSentinel(got)
	MatMulRows(got, a, b, rows)
	check("MatMulRows", got)
	fillSentinel(got)
	MatMulTransBRows(got, a, bt, rows)
	check("MatMulTransBRows", got)
}
