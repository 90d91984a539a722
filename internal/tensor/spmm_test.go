package tensor

import (
	"sync/atomic"
	"testing"
)

// randCSR builds a random CSR index with n rows over nCols source rows:
// each row draws a degree in [0, maxDeg] (with forced zero-degree rows
// sprinkled in), neighbors drawn with duplicates allowed — the adversarial
// shape for accumulation-order bugs.
func randCSR(rng *RNG, n, nSrc, maxDeg int) ([]int64, []int32) {
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < n; v++ {
		indptr[v] = int64(len(indices))
		deg := rng.Intn(maxDeg + 1)
		if v%7 == 3 {
			deg = 0 // forced zero-degree rows
		}
		for e := 0; e < deg; e++ {
			indices = append(indices, int32(rng.Intn(nSrc)))
		}
	}
	indptr[n] = int64(len(indices))
	return indptr, indices
}

// refSpMMRow is the scalar reference: zero, sequential AddTo per edge, then
// the row rescale — the exact semantics SpMM documents.
func refSpMMRow(dst []float32, x *Matrix, nbrs []int32, s float32, scaled bool) {
	for j := range dst {
		dst[j] = 0
	}
	for _, u := range nbrs {
		AddTo(dst, x.Data[int(u)*x.Cols:int(u)*x.Cols+len(dst)])
	}
	if scaled {
		for j := range dst {
			dst[j] *= s
		}
	}
}

// refSpMM runs the reference over every row of a (possibly wider) out.
func refSpMM(out, x *Matrix, indptr []int64, indices []int32, scale []float32) {
	for r := 0; r < out.Rows; r++ {
		dst := out.Data[r*out.Cols : r*out.Cols+x.Cols]
		s := float32(0)
		if scale != nil {
			s = scale[r]
		}
		refSpMMRow(dst, x, indices[indptr[r]:indptr[r+1]], s, scale != nil)
	}
}

// refSpMMTrans is the reference backward: an ascending-source SCATTER with
// one sequential Axpy per edge — the formulation the gather kernel replaces.
// It must produce the gather's bits exactly.
func refSpMMTrans(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, n int) {
	w := dst.Cols
	for v := 0; v < n; v++ {
		s := float32(1)
		if scale != nil {
			s = scale[v]
		}
		srow := src.Data[v*src.Cols : v*src.Cols+w]
		for _, u := range indices[indptr[v]:indptr[v+1]] {
			Axpy(dst.Data[int(u)*w:int(u)*w+w], srow, s)
		}
	}
}

// transposeCSR builds the incoming index (ascending sources) of a CSR.
func transposeCSR(n int, indptr []int64, indices []int32, nDst int) ([]int64, []int32) {
	cnt := make([]int64, nDst+1)
	for _, u := range indices {
		cnt[u+1]++
	}
	for i := 0; i < nDst; i++ {
		cnt[i+1] += cnt[i]
	}
	tIndptr := make([]int64, nDst+1)
	copy(tIndptr, cnt)
	tSrc := make([]int32, len(indices))
	fill := make([]int64, nDst)
	for v := 0; v < n; v++ {
		for _, u := range indices[indptr[v]:indptr[v+1]] {
			tSrc[tIndptr[u]+fill[u]] = int32(v)
			fill[u]++
		}
	}
	return tIndptr, tSrc
}

func sameBitsF32(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// spmmDims are deliberately awkward feature widths: below one SIMD vector,
// one past a vector, one past two (exercising the 16-wide loop, the 8-wide
// block and the scalar tail of the blocked kernels).
var spmmDims = []int{1, 3, 7, 8, 9, 17, 65}

// TestSpMMMatchesScalarReference pins the engine's forward kernel against
// the sequential per-edge reference, bit for bit, across feature widths and
// chunk layouts.
func TestSpMMMatchesScalarReference(t *testing.T) {
	rng := NewRNG(401)
	const n, nSrc = 53, 61
	indptr, indices := randCSR(rng, n, nSrc, 19)
	for _, dim := range spmmDims {
		x := randomMatrix(rng, nSrc, dim)
		scale := make([]float32, n)
		for i := range scale {
			scale[i] = rng.Float32()
		}
		want := New(n, dim)
		refSpMM(want, x, indptr, indices, scale)

		got := New(n, dim)
		SpMM(got, x, indptr, indices, scale, nil)
		sameBitsF32(t, "SpMM/nil-chunks", got.Data, want.Data)

		// Adversarial chunk layouts, including single-row chunks.
		for _, chunks := range [][]int32{
			{0, int32(n)},
			{0, 1, 2, 3, int32(n)},
			{0, 13, 17, 40, int32(n)},
		} {
			got.Zero()
			SpMM(got, x, indptr, indices, scale, chunks)
			sameBitsF32(t, "SpMM/chunks", got.Data, want.Data)
		}

		// Unscaled form.
		refSpMM(want, x, indptr, indices, nil)
		SpMM(got, x, indptr, indices, nil, nil)
		sameBitsF32(t, "SpMM/unscaled", got.Data, want.Data)
	}
}

// TestSpMMWideDestination pins the strided-destination contract: a
// destination wider than x leaves the extra columns untouched (the SAGE
// concat layout).
func TestSpMMWideDestination(t *testing.T) {
	rng := NewRNG(402)
	const n, nSrc, dim = 23, 29, 7
	indptr, indices := randCSR(rng, n, nSrc, 9)
	x := randomMatrix(rng, nSrc, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	out := randomMatrix(rng, n, 2*dim)
	keep := append([]float32(nil), out.Data...)
	SpMM(out, x, indptr, indices, scale, nil)
	want := New(n, dim)
	refSpMM(want, x, indptr, indices, scale)
	for r := 0; r < n; r++ {
		sameBitsF32(t, "left-half", out.Row(r)[:dim], want.Row(r))
		sameBitsF32(t, "right-half-untouched", out.Row(r)[dim:], keep[r*2*dim+dim:(r+1)*2*dim])
	}
}

// TestSpMMTransMatchesScatterReference pins the backward gather against the
// ascending-source scatter it replaces: same bits for the full list with and
// without chunks, a split into a gapped subset and its complement, and
// contiguous sub-slices, scaled and unscaled, with the source matrix wider
// than the destination (the dConcat layout).
func TestSpMMTransMatchesScatterReference(t *testing.T) {
	rng := NewRNG(403)
	const n, nDst = 47, 59
	indptr, indices := randCSR(rng, n, nDst, 15)
	tIndptr, tSrc := transposeCSR(n, indptr, indices, nDst)
	all := allRows(nDst)
	chunks := []int32{0, 7, 8, 31, nDst}
	for _, dim := range spmmDims {
		src := randomMatrix(rng, n, dim+3) // wider than dst: prefix gathered
		scale := make([]float32, n)
		for i := range scale {
			scale[i] = rng.Float32()
		}
		init := randomMatrix(rng, nDst, dim) // caller-owned initialization

		want := New(nDst, dim)
		copy(want.Data, init.Data)
		refSpMMTrans(want, src, indptr, indices, scale, n)

		got := New(nDst, dim)
		copy(got.Data, init.Data)
		SpMMTransRows(got, src, tIndptr, tSrc, scale, nil, all)
		sameBitsF32(t, "SpMMTransRows/nil-chunks", got.Data, want.Data)

		copy(got.Data, init.Data)
		SpMMTransRows(got, src, tIndptr, tSrc, scale, chunks, all)
		sameBitsF32(t, "SpMMTransRows/chunks", got.Data, want.Data)

		copy(got.Data, init.Data)
		a, b := randomSplit(rng, nDst)
		SpMMTransRows(got, src, tIndptr, tSrc, scale, chunks, a)
		SpMMTransRows(got, src, tIndptr, tSrc, scale, nil, b)
		sameBitsF32(t, "SpMMTransRows/split", got.Data, want.Data)

		copy(got.Data, init.Data)
		SpMMTransRows(got, src, tIndptr, tSrc, scale, []int32{0, 13, 44, nDst}, all[:25])
		SpMMTransRows(got, src, tIndptr, tSrc, scale, []int32{0, 13, 44, nDst}, all[25:])
		sameBitsF32(t, "SpMMTransRows/contiguous", got.Data, want.Data)

		// Unscaled form.
		copy(want.Data, init.Data)
		refSpMMTrans(want, src, indptr, indices, nil, n)
		copy(got.Data, init.Data)
		SpMMTransRows(got, src, tIndptr, tSrc, nil, nil, all)
		sameBitsF32(t, "SpMMTransRows/unscaled", got.Data, want.Data)
	}
}

// TestSpMMMegaRow pins the edge-balanced contract on a pathological graph:
// one row holding most of the edges, isolated in its own chunk, must still
// produce the reference bits.
func TestSpMMMegaRow(t *testing.T) {
	rng := NewRNG(404)
	const n, nSrc, dim = 33, 40, 9
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
	x := randomMatrix(rng, nSrc, dim)
	want := New(n, dim)
	refSpMM(want, x, indptr, indices, nil)
	got := New(n, dim)
	SpMM(got, x, indptr, indices, nil, []int32{0, 11, 12, n})
	sameBitsF32(t, "mega-row", got.Data, want.Data)
}

// TestGatherPrimitives pins the exported row-level gathers against their
// sequential references.
func TestGatherPrimitives(t *testing.T) {
	rng := NewRNG(405)
	for _, dim := range spmmDims {
		x := randomMatrix(rng, 31, dim)
		nbrs := make([]int32, 13)
		coef := make([]float32, 13)
		for i := range nbrs {
			nbrs[i] = int32(rng.Intn(31))
			coef[i] = rng.Float32() - 0.5
		}

		want := make([]float32, dim)
		got := make([]float32, dim)
		for j := 0; j < dim; j++ {
			want[j] = rng.Float32()
			got[j] = want[j]
		}
		for i, u := range nbrs {
			Axpy(want, x.Row(int(u)), coef[i])
		}
		GatherAxpy(got, x, nbrs, coef)
		sameBitsF32(t, "GatherAxpy", got, want)

		for j := range want {
			want[j] = 0
		}
		for _, u := range nbrs {
			AddTo(want, x.Row(int(u)))
		}
		GatherSum(got, x, nbrs)
		sameBitsF32(t, "GatherSum", got, want)

		a := make([]float32, dim)
		for j := range a {
			a[j] = rng.Float32() - 0.5
		}
		dots := make([]float32, len(nbrs))
		GatherDots(dots, a, x, nbrs)
		for i, u := range nbrs {
			// dot4's lane reduction legitimately differs from the scalar
			// Dot in the low bits; check against a float64 accumulation
			// with a loose tolerance instead.
			var s float64
			for j := 0; j < dim; j++ {
				s += float64(a[j]) * float64(x.Row(int(u))[j])
			}
			if d := float64(dots[i]) - s; d > 1e-4 || d < -1e-4 {
				t.Fatalf("GatherDots dim=%d i=%d: got %v want %v", dim, i, dots[i], s)
			}
		}
	}
}

// TestSpMMParallelPathMatchesSerial forces the worker-pool branch (the
// serial guards skip it on 1-CPU hosts) and checks the chunk-claimed
// execution still produces the reference bits.
func TestSpMMParallelPathMatchesSerial(t *testing.T) {
	saved := maxProcs
	maxProcs = 4
	defer func() { maxProcs = saved }()

	rng := NewRNG(406)
	const n, nSrc, dim = 97, 83, 17
	indptr, indices := randCSR(rng, n, nSrc, 21)
	x := randomMatrix(rng, nSrc, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	want := New(n, dim)
	refSpMM(want, x, indptr, indices, scale)

	got := New(n, dim)
	SpMM(got, x, indptr, indices, scale, []int32{0, 5, 40, 41, 77, n})
	sameBitsF32(t, "parallel/chunks", got.Data, want.Data)
	got.Zero()
	SpMM(got, x, indptr, indices, scale, nil)
	sameBitsF32(t, "parallel/grain", got.Data, want.Data)

	tIndptr, tSrc := transposeCSR(n, indptr, indices, nSrc)
	src := randomMatrix(rng, n, dim)
	wantT := New(nSrc, dim)
	refSpMMTrans(wantT, src, indptr, indices, scale, n)
	gotT := New(nSrc, dim)
	SpMMTransRows(gotT, src, tIndptr, tSrc, scale, []int32{0, 11, 30, nSrc}, allRows(nSrc))
	sameBitsF32(t, "parallel/trans", gotT.Data, wantT.Data)
}

// TestRowListsClaimChunkSplits pins the chunk-split claiming of the row-list
// sparse kernels: each pool claim takes the part of an ascending list inside
// one edge-balanced chunk. Lists that are empty, a single row, gapped across
// several chunks, holding a mega-degree row alone in its chunk, ending
// mid-chunk, or random must reproduce the full references bit for bit — SpMM,
// self-copy and MatMul for the fused forward, the ascending-source scatter
// for the transposed gather — and leave every unlisted row untouched, at
// pool widths 1 and 2; ParallelRowChunks, the layers' form of the same
// claims, must hand out every listed row exactly once, also with no chunks.
func TestRowListsClaimChunkSplits(t *testing.T) {
	saved := maxProcs
	defer func() { maxProcs = saved }()

	rng := NewRNG(409)
	const n, in, out, dim = 53, 7, 5, 9
	// Row 20 is a mega-degree row whose edges all land on node 33, so row
	// 20 dominates the forward index and node 33 the transposed one; each
	// sits alone in its chunk.
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < n; v++ {
		indptr[v] = int64(len(indices))
		deg := rng.Intn(6)
		if v == 20 {
			deg = 600
		}
		for e := 0; e < deg; e++ {
			u := int32(rng.Intn(n))
			if v == 20 {
				u = 33
			}
			indices = append(indices, u)
		}
	}
	indptr[n] = int64(len(indices))
	tIndptr, tSrc := transposeCSR(n, indptr, indices, n)
	chunks := []int32{0, 6, 13, 20, 21, 29, 37, n}
	tChunks := []int32{0, 9, 18, 33, 34, 45, n}

	h := randomMatrix(rng, n, in)
	w := randomMatrix(rng, 2*in, out)
	src := randomMatrix(rng, n, dim)
	init := randomMatrix(rng, n, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	wantPre, concat := refFusedForward(h, w, indptr, indices, scale, n)
	wantT := init.Clone()
	refSpMMTrans(wantT, src, indptr, indices, scale, n)

	lists := map[string][]int32{
		"empty":     {},
		"single":    {17},
		"gapped":    {1, 2, 14, 15, 30, 44, 51},
		"mega":      {3, 20, 33, 50},
		"mid-chunk": allRows(10),
	}
	for i := 0; i < 4; i++ {
		a, _ := randomSplit(rng, n)
		lists["random"+string(rune('0'+i))] = a
	}
	for _, width := range []int{1, 2} {
		maxProcs = width
		for name, rows := range lists {
			listed := make([]bool, n)
			for _, v := range rows {
				listed[v] = true
			}
			pre, z := New(n, out), New(n, in)
			fillSentinel(pre)
			fillSentinel(z)
			SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, chunks, rows)
			dst := init.Clone()
			SpMMTransRows(dst, src, tIndptr, tSrc, scale, tChunks, rows)
			for _, cs := range [][]int32{chunks, nil} { // nil chunks run inline
				covered := make([]int32, n)
				ParallelRowChunks(rows, cs, func(sub []int32) {
					for _, v := range sub {
						atomic.AddInt32(&covered[v], 1)
					}
				})
				for v, c := range covered {
					if listed[v] != (c == 1) || c > 1 {
						t.Fatalf("%s: ParallelRowChunks (chunks %v) covered row %d %d times (listed %v)", name, cs != nil, v, c, listed[v])
					}
				}
			}
			for v := 0; v < n; v++ {
				wantZ, wantP, wantD := concat.Row(v)[:in], wantPre.Row(v), wantT.Row(v)
				if !listed[v] {
					wantZ, wantP, wantD = sentinelRow(in), sentinelRow(out), init.Row(v)
				}
				sameBitsF32(t, name+"/z", z.Row(v), wantZ)
				sameBitsF32(t, name+"/pre", pre.Row(v), wantP)
				sameBitsF32(t, name+"/trans", dst.Row(v), wantD)
			}
		}
	}
}

// sentinelRow is a row fillSentinel wrote.
func sentinelRow(n int) []float32 {
	row := make([]float32, n)
	for i := range row {
		row[i] = -12345.5
	}
	return row
}
