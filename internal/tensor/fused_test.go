package tensor

import (
	"testing"
)

// refFusedForward is the unfused pipeline the fused kernel replaces, built
// from the engine's own kernels: SpMM into the concat's left half, a row-copy
// pass into the right half, MatMul over the concat. SpMMMatMulRows documents
// bit-identity against exactly this sequence. Returns (pre, concat) so
// callers can also check z against the concat's left half.
func refFusedForward(h, w *Matrix, indptr []int64, indices []int32, scale []float32, n int) (*Matrix, *Matrix) {
	in := h.Cols
	concat := New(n, 2*in)
	SpMM(concat, h, indptr, indices, scale, nil)
	for r := 0; r < n; r++ {
		copy(concat.Row(r)[in:], h.Row(r)[:in])
	}
	pre := New(n, w.Cols)
	MatMul(pre, concat, w)
	return pre, concat
}

// fusedOutDims are the projection widths crossed with spmmDims' input widths:
// below one axpy vector, exactly the register-block width, and odd overhangs.
var fusedOutDims = []int{1, 5, 8, 19}

// TestSpMMMatMulMatchesUnfused pins the fused forward against
// SpMM+copy+MatMul, bit for bit, across awkward input/output widths
// (including in % 4 != 0, which makes kk panels straddle the z/h boundary),
// zero-degree rows, chunk layouts, and row partitions.
func TestSpMMMatMulMatchesUnfused(t *testing.T) {
	rng := NewRNG(501)
	const n, nSrc = 53, 61
	indptr, indices := randCSR(rng, n, nSrc, 19)
	for _, in := range spmmDims {
		for _, out := range fusedOutDims {
			h := randomMatrix(rng, nSrc, in)
			w := randomMatrix(rng, 2*in, out)
			scale := make([]float32, n)
			for i := range scale {
				scale[i] = rng.Float32()
			}
			want, concat := refFusedForward(h, w, indptr, indices, scale, n)

			pre := New(n, out)
			z := New(n, in)
			all := allRows(n)
			SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, nil, all)
			sameBitsF32(t, "pre/nil-chunks", pre.Data, want.Data)
			for r := 0; r < n; r++ {
				sameBitsF32(t, "z", z.Row(r), concat.Row(r)[:in])
			}

			// Adversarial chunk layouts, including single-row chunks and a
			// boundary past pre.Rows (the clamped tail chunk).
			for _, chunks := range [][]int32{
				{0, int32(n)},
				{0, 1, 2, 3, int32(n)},
				{0, 13, 17, 40, int32(n)},
				{0, 29, int32(n + 4)},
			} {
				pre.Zero()
				z.Zero()
				SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, chunks, all)
				sameBitsF32(t, "pre/chunks", pre.Data, want.Data)
			}

			// Random duplicate-free row partition.
			pre.Zero()
			z.Zero()
			a, b := randomSplit(rng, n)
			SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, nil, a)
			SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, []int32{0, 13, 17, 40, int32(n)}, b)
			sameBitsF32(t, "pre/rows", pre.Data, want.Data)

			// Unscaled form.
			want, _ = refFusedForward(h, w, indptr, indices, nil, n)
			SpMMMatMulRows(pre, z, h, w, indptr, indices, nil, nil, all)
			sameBitsF32(t, "pre/unscaled", pre.Data, want.Data)
		}
	}
}

// TestSpMMMatMulMegaRow pins the fused kernel on the degree-skew shape: one
// row holding most of the edges, isolated in its own chunk.
func TestSpMMMatMulMegaRow(t *testing.T) {
	rng := NewRNG(502)
	const n, nSrc, in, out = 33, 40, 9, 7
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < n; v++ {
		indptr[v] = int64(len(indices))
		deg := 2
		if v == 11 {
			deg = 900 // the mega row
		}
		for e := 0; e < deg; e++ {
			indices = append(indices, int32(rng.Intn(nSrc)))
		}
	}
	indptr[n] = int64(len(indices))
	h := randomMatrix(rng, nSrc, in)
	w := randomMatrix(rng, 2*in, out)
	want, _ := refFusedForward(h, w, indptr, indices, nil, n)
	pre := New(n, out)
	z := New(n, in)
	SpMMMatMulRows(pre, z, h, w, indptr, indices, nil, []int32{0, 11, 12, n}, allRows(n))
	sameBitsF32(t, "mega-row", pre.Data, want.Data)
}

// TestSpMMMatMulParallelPathMatchesSerial forces the worker-pool branch
// (chunk-split claims of the full list and of a subset) and checks the fused
// kernel still produces the unfused reference bits.
func TestSpMMMatMulParallelPathMatchesSerial(t *testing.T) {
	saved := maxProcs
	maxProcs = 4
	defer func() { maxProcs = saved }()

	rng := NewRNG(503)
	const n, nSrc, in, out = 97, 83, 17, 19
	indptr, indices := randCSR(rng, n, nSrc, 21)
	h := randomMatrix(rng, n+3, in) // h must cover every output row's self half
	w := randomMatrix(rng, 2*in, out)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	want, _ := refFusedForward(h, w, indptr, indices, scale, n)

	chunks := []int32{0, 5, 40, 41, 77, n}
	pre := New(n, out)
	z := New(n, in)
	SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, chunks, allRows(n))
	sameBitsF32(t, "parallel/chunks", pre.Data, want.Data)
	pre.Zero()
	a, b := randomSplit(rng, n)
	SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, chunks, a)
	SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, chunks, b)
	sameBitsF32(t, "parallel/rows", pre.Data, want.Data)
}

// TestMatMulTransBSplitMatchesUnfused pins the fused backward sweep
// (MatMulTransBSplitRows) against MatMulTransBRows-into-dConcat followed by
// the split, bit for bit, across widths, for the full row list and the
// staged halo/free row subsets the pipelined backward drives.
func TestMatMulTransBSplitMatchesUnfused(t *testing.T) {
	rng := NewRNG(504)
	const n = 41
	for _, in := range spmmDims {
		for _, out := range fusedOutDims {
			dPre := randomMatrix(rng, n, out)
			w := randomMatrix(rng, 2*in, out)

			dConcat := New(n, 2*in)
			MatMulTransBRows(dConcat, dPre, w, allRows(n))
			wantZ := New(n, in)
			wantSelf := New(n, in)
			for r := 0; r < n; r++ {
				copy(wantZ.Row(r), dConcat.Row(r)[:in])
				copy(wantSelf.Row(r), dConcat.Row(r)[in:])
			}

			dz := New(n, in)
			dSelf := New(n, in)
			MatMulTransBSplitRows(dz, dSelf, dPre, w, allRows(n))
			sameBitsF32(t, "dz", dz.Data, wantZ.Data)
			sameBitsF32(t, "dSelf", dSelf.Data, wantSelf.Data)

			// Staged backward shape: halo sources first, then the free rest —
			// a duplicate-free partition covering every row exactly once.
			dz.Zero()
			dSelf.Zero()
			halo, free := randomSplit(rng, n)
			MatMulTransBSplitRows(dz, dSelf, dPre, w, halo)
			MatMulTransBSplitRows(dz, dSelf, dPre, w, free)
			sameBitsF32(t, "dz/staged", dz.Data, wantZ.Data)
			sameBitsF32(t, "dSelf/staged", dSelf.Data, wantSelf.Data)
		}
	}
}

// TestMatMulTransBSplitParallel forces the row-parallel branch of the
// row-list sweep.
func TestMatMulTransBSplitParallel(t *testing.T) {
	saved := maxProcs
	maxProcs = 4
	defer func() { maxProcs = saved }()

	rng := NewRNG(505)
	const n, in, out = 193, 9, 13
	dPre := randomMatrix(rng, n, out)
	w := randomMatrix(rng, 2*in, out)
	dConcat := New(n, 2*in)
	MatMulTransBRows(dConcat, dPre, w, allRows(n))
	wantZ := New(n, in)
	wantSelf := New(n, in)
	for r := 0; r < n; r++ {
		copy(wantZ.Row(r), dConcat.Row(r)[:in])
		copy(wantSelf.Row(r), dConcat.Row(r)[in:])
	}

	dz := New(n, in)
	dSelf := New(n, in)
	MatMulTransBSplitRows(dz, dSelf, dPre, w, allRows(n))
	sameBitsF32(t, "dz/parallel-rows", dz.Data, wantZ.Data)
	sameBitsF32(t, "dSelf/parallel-rows", dSelf.Data, wantSelf.Data)
}

// TestMatMulTransASplitMatchesUnfused pins the fused dW accumulation against
// MatMulTransA over a materialized concat — including the k >= 256 parallel
// reduction, whose worker split and in-order fold must match exactly.
func TestMatMulTransASplitMatchesUnfused(t *testing.T) {
	rng := NewRNG(506)
	for _, k := range []int{1, 3, 64, 300} { // 300 crosses the parallel threshold
		for _, in := range []int{1, 7, 8, 17} {
			const out = 11
			z := randomMatrix(rng, k, in)
			h := randomMatrix(rng, k+5, in) // h taller than dPre: prefix is the self half
			dPre := randomMatrix(rng, k, out)

			concat := New(k, 2*in)
			for r := 0; r < k; r++ {
				copy(concat.Row(r)[:in], z.Row(r))
				copy(concat.Row(r)[in:], h.Row(r))
			}
			want := New(2*in, out)
			MatMulTransA(want, concat, dPre)

			got := New(2*in, out)
			MatMulTransASplit(got, z, h, dPre)
			sameBitsF32(t, "dW", got.Data, want.Data)
		}
	}
}

// TestMatMulTransASplitParallel forces the worker-pool reduction and checks
// the in-order partial fold reproduces the serial bits.
func TestMatMulTransASplitParallel(t *testing.T) {
	saved := maxProcs
	maxProcs = 4
	defer func() { maxProcs = saved }()

	rng := NewRNG(507)
	const k, in, out = 513, 9, 13
	z := randomMatrix(rng, k, in)
	h := randomMatrix(rng, k, in)
	dPre := randomMatrix(rng, k, out)

	concat := New(k, 2*in)
	for r := 0; r < k; r++ {
		copy(concat.Row(r)[:in], z.Row(r))
		copy(concat.Row(r)[in:], h.Row(r))
	}
	want := New(2*in, out)
	MatMulTransA(want, concat, dPre)

	got := New(2*in, out)
	MatMulTransASplit(got, z, h, dPre)
	sameBitsF32(t, "dW/parallel", got.Data, want.Data)
}

// TestDotMatchesFloat64 sanity-checks the SIMD Dot against a float64
// accumulation: the AVX2 lane reduction legitimately differs from the scalar
// sum in the low bits, so this is a tolerance check, not a bit pin (all
// bit-identity contracts in the engine are within-build).
func TestDotMatchesFloat64(t *testing.T) {
	rng := NewRNG(508)
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 31, 64, 65, 200} {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = rng.Float32() - 0.5
			b[i] = rng.Float32() - 0.5
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if d := got - want; d > 1e-4 || d < -1e-4 {
			t.Fatalf("Dot n=%d: got %v want %v", n, got, want)
		}
	}
}
