package tensor

import (
	"testing"

	"repro/internal/graph"
)

func benchMatrices(n, k, m int) (*Matrix, *Matrix, *Matrix) {
	rng := NewRNG(1)
	a := randomMatrix(rng, n, k)
	b := randomMatrix(rng, k, m)
	return New(n, m), a, b
}

// benchMatMulSquare reports GFLOP/s-comparable numbers for n×n×n MatMul via
// SetBytes (2 FLOPs ≈ 8 "bytes" per multiply-add at float32).
func benchMatMulSquare(b *testing.B, n int) {
	out, x, y := benchMatrices(n, n, n)
	b.SetBytes(int64(n) * int64(n) * int64(n) * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(out, x, y)
	}
}

func BenchmarkMatMul128(b *testing.B)  { benchMatMulSquare(b, 128) }
func BenchmarkMatMul256(b *testing.B)  { benchMatMulSquare(b, 256) }
func BenchmarkMatMul512(b *testing.B)  { benchMatMulSquare(b, 512) }
func BenchmarkMatMul1024(b *testing.B) { benchMatMulSquare(b, 1024) }

// BenchmarkMatMul is the 512×512×512 acceptance benchmark shape under its
// exact name, so `-bench=BenchmarkMatMul$` selects it alone.
func BenchmarkMatMul(b *testing.B) { benchMatMulSquare(b, 512) }

// BenchmarkMatMulTransB measures out = a·bᵀ as the layers run it: the
// row-list kernel over the full identity list.
func BenchmarkMatMulTransB(b *testing.B) {
	rng := NewRNG(2)
	a := randomMatrix(rng, 512, 512)
	c := randomMatrix(rng, 512, 512)
	out := New(512, 512)
	rows := allRows(512)
	b.SetBytes(512 * 512 * 512 * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBRows(out, a, c, rows)
	}
}

func BenchmarkTranspose(b *testing.B) {
	rng := NewRNG(5)
	a := randomMatrix(rng, 2048, 2048)
	out := New(2048, 2048)
	b.SetBytes(2048 * 2048 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeInto(out, a)
	}
}

func BenchmarkMatMulTall(b *testing.B) {
	// GCN shape: many nodes × small feature dims.
	out, x, y := benchMatrices(4096, 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(out, x, y)
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	rng := NewRNG(2)
	x := randomMatrix(rng, 4096, 64)
	y := randomMatrix(rng, 4096, 32)
	out := New(64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransA(out, x, y)
	}
}

func BenchmarkGatherRows(b *testing.B) {
	rng := NewRNG(3)
	src := randomMatrix(rng, 10000, 64)
	idx := make([]int32, 2000)
	for i := range idx {
		idx[i] = int32(rng.Intn(10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherRows(src, idx)
	}
}

// benchCSR builds a fixed-degree random CSR for the SpMM benches.
func benchCSR(rng *RNG, n, deg int) ([]int64, []int32) {
	indptr := make([]int64, n+1)
	indices := make([]int32, 0, n*deg)
	for v := 0; v < n; v++ {
		indptr[v] = int64(len(indices))
		for e := 0; e < deg; e++ {
			indices = append(indices, int32(rng.Intn(n)))
		}
	}
	indptr[n] = int64(len(indices))
	return indptr, indices
}

// benchSpMM measures one forward aggregation pass. engine=false runs the
// sequential per-edge reference walk (the pre-engine code shape); true runs
// the blocked SpMM kernel. Low degree ≈ products-sim, high ≈ reddit.
func benchSpMM(b *testing.B, n, deg, dim int, engine bool) {
	rng := NewRNG(42)
	indptr, indices := benchCSR(rng, n, deg)
	x := randomMatrix(rng, n, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = 1 / float32(deg)
	}
	out := New(n, dim)
	b.SetBytes(int64(n) * int64(deg) * int64(dim) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if engine {
			SpMM(out, x, indptr, indices, scale, nil)
		} else {
			refSpMM(out, x, indptr, indices, scale)
		}
	}
}

func BenchmarkSpMMLowDegScalar(b *testing.B)  { benchSpMM(b, 4096, 8, 64, false) }
func BenchmarkSpMMLowDeg(b *testing.B)        { benchSpMM(b, 4096, 8, 64, true) }
func BenchmarkSpMMHighDegScalar(b *testing.B) { benchSpMM(b, 2048, 256, 64, false) }
func BenchmarkSpMMHighDeg(b *testing.B)       { benchSpMM(b, 2048, 256, 64, true) }

// BenchmarkSpMM is the high-degree acceptance shape under its exact name,
// so `-bench=BenchmarkSpMM$` selects it alone.
func BenchmarkSpMM(b *testing.B) { benchSpMM(b, 2048, 256, 64, true) }

// benchCSRChunks is the edge-balanced chunk list graph.AggIndex builds for
// a CSR at the current pool width.
func benchCSRChunks(indptr []int64) []int32 {
	return graph.EdgeChunks(indptr, graph.ChunkTarget(indptr, maxProcs), nil)
}

// benchSpMMTrans measures the backward gather — the row-list kernel over the
// full identity list with the plan's chunks — against the scatter-shaped
// reference it replaces.
func benchSpMMTrans(b *testing.B, n, deg, dim int, engine bool) {
	rng := NewRNG(43)
	indptr, indices := benchCSR(rng, n, deg)
	tIndptr, tSrc := transposeCSR(n, indptr, indices, n)
	chunks, rows := benchCSRChunks(tIndptr), allRows(n)
	src := randomMatrix(rng, n, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = 1 / float32(deg)
	}
	dst := New(n, dim)
	b.SetBytes(int64(n) * int64(deg) * int64(dim) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		if engine {
			SpMMTransRows(dst, src, tIndptr, tSrc, scale, chunks, rows)
		} else {
			refSpMMTrans(dst, src, indptr, indices, scale, n)
		}
	}
}

func BenchmarkSpMMTransHighDegScalar(b *testing.B) { benchSpMMTrans(b, 2048, 256, 64, false) }
func BenchmarkSpMMTransHighDeg(b *testing.B)       { benchSpMMTrans(b, 2048, 256, 64, true) }

// benchAggProj measures the SAGE forward hot pair — aggregate then project —
// fused (SpMMMatMulRows over the full identity list with the plan's chunks,
// no concat ever written) against the unfused pipeline
// (SpMM into the concat's left half, the self-copy pass, MatMul over the
// concat). Bytes = FLOPs·4 (aggregation adds + projection multiply-adds), so
// MB/s comparisons are FLOP-rate comparisons across the two variants.
func benchAggProj(b *testing.B, n, deg, in, out int, fused bool) {
	rng := NewRNG(44)
	indptr, indices := benchCSR(rng, n, deg)
	chunks, rows := benchCSRChunks(indptr), allRows(n)
	h := randomMatrix(rng, n, in)
	w := randomMatrix(rng, 2*in, out)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = 1 / float32(deg)
	}
	pre := New(n, out)
	z := New(n, in)
	concat := New(n, 2*in)
	flops := int64(n)*int64(deg)*int64(in) + 2*int64(n)*int64(2*in)*int64(out)
	b.SetBytes(flops * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			SpMMMatMulRows(pre, z, h, w, indptr, indices, scale, chunks, rows)
		} else {
			SpMM(concat, h, indptr, indices, scale, nil)
			for r := 0; r < n; r++ {
				copy(concat.Row(r)[in:], h.Row(r))
			}
			MatMul(pre, concat, w)
		}
	}
}

func BenchmarkAggProjHighDegUnfused(b *testing.B) { benchAggProj(b, 2048, 256, 64, 64, false) }
func BenchmarkAggProjHighDegFused(b *testing.B)   { benchAggProj(b, 2048, 256, 64, 64, true) }
func BenchmarkAggProjLowDegUnfused(b *testing.B)  { benchAggProj(b, 4096, 8, 64, 64, false) }
func BenchmarkAggProjLowDegFused(b *testing.B)    { benchAggProj(b, 4096, 8, 64, 64, true) }

// benchBackwardSplit measures the backward concat sweep over the full
// identity list: fused (MatMulTransBSplitRows writing dz and the self
// gradient in one pass) against MatMulTransBRows into dConcat plus the
// split-copy pass.
func benchBackwardSplit(b *testing.B, n, in, out int, fused bool) {
	rng := NewRNG(45)
	dPre := randomMatrix(rng, n, out)
	w := randomMatrix(rng, 2*in, out)
	dz := New(n, in)
	dSelf := New(n, in)
	dConcat := New(n, 2*in)
	rows := allRows(n)
	b.SetBytes(2 * int64(n) * int64(2*in) * int64(out) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			MatMulTransBSplitRows(dz, dSelf, dPre, w, rows)
		} else {
			MatMulTransBRows(dConcat, dPre, w, rows)
			for r := 0; r < n; r++ {
				copy(dz.Row(r), dConcat.Row(r)[:in])
				copy(dSelf.Row(r), dConcat.Row(r)[in:])
			}
		}
	}
}

func BenchmarkBackwardSplitUnfused(b *testing.B) { benchBackwardSplit(b, 2048, 64, 64, false) }
func BenchmarkBackwardSplitFused(b *testing.B)   { benchBackwardSplit(b, 2048, 64, 64, true) }
