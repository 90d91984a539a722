package tensor

import (
	"fmt"
	"slices"
)

// Sparse aggregation engine: CSR SpMM kernels for the graph layers' neighbor
// aggregation (forward Z = scale·A·H, backward dH = Aᵀ·scale·dZ as a gather
// over the transposed index), mirroring the dense MatMul* family.
//
// Reference semantics. Each output row is defined by a sequential per-edge
// walk built on the vector primitives:
//
//	SpMM row r:       zero; for each e in CSR row r: AddTo(dst, x.Row(u_e));
//	                  then dst *= scale[r]
//	SpMMTransRows r:  for each e in transposed row r: Axpy(dst, src.Row(v_e),
//	                  scale[v_e])        (dst is NOT zeroed: the caller owns
//	                  the initialization — zero, or a self term)
//
// The kernels below walk edges four at a time through axpy4 instead, and that
// is bit-identical to the sequential walk: the assembly chains its four FMAs
// into one accumulator in source order (dst, then +b0, +b1, +b2, +b3 — and
// fma(1,x,acc) ≡ acc+x exactly, so the unit-coefficient case reproduces
// AddTo), and addTo4/axpySeq4 use sequential mul-then-add scalar tails that
// match Axpy's own tail step for step. Accumulation order per *element* only
// depends on per-element operation order, which edge-blocking preserves.
// The property tests pin kernel ≡ reference on odd/prime shapes, zero-degree
// rows, and random row partitions.
//
// Parallelism. Rows are fully independent (each output row reads only its
// own CSR segment and writes only itself), so any duplicate-free partition of
// the row space is bit-identical in any execution order. The kernels take an
// edge-balanced chunk index (prefix-summed over indptr by graph.AggIndex so
// one mega-degree row lands in its own chunk instead of serializing a
// worker's whole share) and claim chunks dynamically from the persistent
// worker pool; the row-list kernels claim the part of their ascending list
// inside one chunk per cursor advance, so a full pass over the identity list
// is balanced exactly like SpMM's. SpMM with chunks == nil falls back to
// dynamic spmmGrain-row claiming, which load-balances everything except a
// single mega row.

// spmmGrain is the dynamic claim size (in rows) of chunkless SpMM — small
// enough that degree skew between claims stays bounded, large enough that
// the atomic cursor is not contended — and the list length up to which the
// row-list kernels run inline.
const spmmGrain = 8

// unitCoef feeds axpy4AVX2 for the unscaled gather: fma(1,x,acc) ≡ acc+x
// bitwise, so the blocked sum reproduces sequential AddTo exactly.
var unitCoef = [4]float32{1, 1, 1, 1}

// addTo4 computes dst += b0 + b1 + b2 + b3 with, per element, the exact
// accumulation order of four sequential AddTo calls.
func addTo4(dst, b0, b1, b2, b3 []float32) {
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpy4AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &unitCoef)
		j = n8
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; j < n; j++ {
		v := dst[j]
		v += b0[j]
		v += b1[j]
		v += b2[j]
		v += b3[j]
		dst[j] = v
	}
}

// axpySeq4 computes dst += a0*b0 + a1*b1 + a2*b2 + a3*b3 with, per element,
// the exact accumulation order of four sequential Axpy calls (the assembly
// chains the four FMAs; the scalar tail multiplies-then-adds one term at a
// time, unlike axpy4's fused four-term tail).
func axpySeq4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		a := [4]float32{a0, a1, a2, a3}
		axpy4AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &a)
		j = n8
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; j < n; j++ {
		v := dst[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// GatherSum computes dst = Σ_i x.Row(nbrs[i]), walking the rows in order
// with the edge-blocked accumulation (bit-identical to sequential AddTo).
// len(dst) must equal x.Cols.
func GatherSum(dst []float32, x *Matrix, nbrs []int32) {
	for j := range dst {
		dst[j] = 0
	}
	GatherAdd(dst, x, nbrs)
}

// GatherAdd computes dst += Σ_i x.Row(nbrs[i]) in list order.
func GatherAdd(dst []float32, x *Matrix, nbrs []int32) {
	w := len(dst)
	xd := x.Data
	xw := x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		addTo4(dst, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		AddTo(dst, xd[u:u+w])
	}
}

// GatherAxpy computes dst += Σ_i coef[i]·x.Row(nbrs[i]) in list order
// (bit-identical to sequential Axpy calls). len(coef) must be ≥ len(nbrs);
// len(dst) must be ≤ x.Cols (a prefix of each source row is gathered).
func GatherAxpy(dst []float32, x *Matrix, nbrs []int32, coef []float32) {
	w := len(dst)
	xd := x.Data
	xw := x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		axpySeq4(dst, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w],
			coef[i], coef[i+1], coef[i+2], coef[i+3])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		Axpy(dst, xd[u:u+w], coef[i])
	}
}

// GatherDots computes out[i] = Σ_j a[j]·x.Row(nbrs[i])[j] for every i, four
// rows per dot4 pass (the shared a vector is loaded once per four rows).
// Each dot is independent, so the blocking affects no other entry; within a
// dot the dot4 lane reduction differs from the scalar Dot — callers that
// need bit-stability must route every computation of a value through this
// one function, which the GAT backward does.
func GatherDots(out []float32, a []float32, x *Matrix, nbrs []int32) {
	w := len(a)
	xd := x.Data
	xw := x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		out[i], out[i+1], out[i+2], out[i+3] = dot4(a, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		out[i] = Dot(a, xd[u:u+w])
	}
}

// checkSpMM validates the shared SpMM shape contract: one CSR row per output
// row, destination at least as wide as the gathered width.
func checkSpMM(name string, out, x *Matrix, indptr []int64, indices []int32, scale []float32) {
	if out.Cols < x.Cols {
		panic(fmt.Sprintf("tensor: %s out width %d < x width %d", name, out.Cols, x.Cols))
	}
	if len(indptr) < out.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), out.Rows+1))
	}
	if scale != nil && len(scale) < out.Rows {
		panic(fmt.Sprintf("tensor: %s scale len %d, need %d", name, len(scale), out.Rows))
	}
	_ = indices
}

// spmmRow computes one output row: dst[:w] = scale·Σ x.Row(u) over the CSR
// row's edges, in edge order.
func spmmRow(out, x *Matrix, indptr []int64, indices []int32, scale []float32, r int) {
	w := x.Cols
	dst := out.Data[r*out.Cols : r*out.Cols+w]
	GatherSum(dst, x, indices[indptr[r]:indptr[r+1]])
	if scale != nil {
		s := scale[r]
		for j := range dst {
			dst[j] *= s
		}
	}
}

// SpMM computes, for every row r in [0, out.Rows):
//
//	out.Row(r)[:x.Cols] = scale[r] · Σ_{e ∈ CSR row r} x.Row(indices[e])
//
// i.e. out = diag(scale)·A·x over the CSR adjacency (indptr, indices). scale
// == nil skips the rescale. out.Cols may exceed x.Cols: only the first
// x.Cols entries of each row are written (the explicit-concat SAGE
// reference aggregates into the left half of its concat buffer). chunks,
// when non-nil, is an edge-balanced row-chunk boundary list
// (graph.AggIndex.Chunks): ascending, chunks[0] = 0, boundaries clamped to
// out.Rows, each chunk claimed whole by one worker. Rows are independent,
// so every execution strategy is bit-identical.
func SpMM(out, x *Matrix, indptr []int64, indices []int32, scale []float32, chunks []int32) {
	checkSpMM("SpMM", out, x, indptr, indices, scale)
	if chunks == nil || maxProcs == 1 {
		spmmRange(out, x, indptr, indices, scale, 0, out.Rows)
		return
	}
	nr := out.Rows
	parallelGrain(len(chunks)-1, 1, func(cLo, cHi int) {
		for c := cLo; c < cHi; c++ {
			lo, hi := int(chunks[c]), int(chunks[c+1])
			if hi > nr {
				hi = nr
			}
			for r := lo; r < hi; r++ {
				spmmRow(out, x, indptr, indices, scale, r)
			}
		}
	})
}

func spmmRange(out, x *Matrix, indptr []int64, indices []int32, scale []float32, lo, hi int) {
	if hi-lo <= spmmGrain || maxProcs == 1 { // skip the closure: it would escape
		for r := lo; r < hi; r++ {
			spmmRow(out, x, indptr, indices, scale, r)
		}
		return
	}
	parallelGrain(hi-lo, spmmGrain, func(l, h int) {
		for r := lo + l; r < lo+h; r++ {
			spmmRow(out, x, indptr, indices, scale, r)
		}
	})
}

// spmmTransRow accumulates one destination row of the transposed product:
// dst.Row(r) += Σ scale[v]·src.Row(v)[:w] over the transposed CSR row's
// sources, in stored (ascending-source) order. The caller owns dst's
// initialization.
func spmmTransRow(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, r int) {
	w := dst.Cols
	drow := dst.Data[r*w : r*w+w]
	srcs := indices[indptr[r]:indptr[r+1]]
	sd := src.Data
	sw := src.Cols
	if scale == nil {
		GatherAdd(drow, src, srcs)
		return
	}
	i := 0
	for ; i+4 <= len(srcs); i += 4 {
		v0, v1, v2, v3 := srcs[i], srcs[i+1], srcs[i+2], srcs[i+3]
		axpySeq4(drow,
			sd[int(v0)*sw:int(v0)*sw+w], sd[int(v1)*sw:int(v1)*sw+w],
			sd[int(v2)*sw:int(v2)*sw+w], sd[int(v3)*sw:int(v3)*sw+w],
			scale[v0], scale[v1], scale[v2], scale[v3])
	}
	for ; i < len(srcs); i++ {
		v := srcs[i]
		Axpy(drow, sd[int(v)*sw:int(v)*sw+w], scale[v])
	}
}

// checkSpMMTrans validates the transposed contract: per-destination incoming
// lists, source matrix at least as wide as the destination, per-SOURCE scale.
func checkSpMMTrans(name string, dst, src *Matrix, indptr []int64) {
	if src.Cols < dst.Cols {
		panic(fmt.Sprintf("tensor: %s src width %d < dst width %d", name, src.Cols, dst.Cols))
	}
	if len(indptr) < dst.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), dst.Rows+1))
	}
}

// SpMMTransRows computes the backward aggregation dst += Aᵀ·diag(scale)·src
// as a GATHER over the listed destination rows: for every r in rows,
//
//	dst.Row(r) += Σ_{v ∈ transposed CSR row r} scale[v] · src.Row(v)[:dst.Cols]
//
// leaving all other rows untouched. (indptr, indices) is the TRANSPOSED
// index — per destination, the ascending list of source rows
// (graph.AggIndex.IncIndptr/IncSrc) — so destination rows are independent
// and the scatter race of the naive formulation never exists. scale indexes
// SOURCE rows; nil skips the scaling. src.Cols may exceed dst.Cols. dst is
// accumulated into, not zeroed: the caller initializes rows (zero, or the
// layer's self term). rows must be ascending and duplicate-free; chunks is
// the edge-balanced boundary list over the transposed index
// (graph.AggIndex.IncChunks), each pool claim taking the part of rows inside
// one chunk, and nil runs the list on the calling goroutine.
func SpMMTransRows(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, chunks, rows []int32) {
	checkSpMMTrans("SpMMTransRows", dst, src, indptr)
	if rowsInline("SpMMTransRows", rows, chunks) {
		spmmTransRowsSeg(dst, src, indptr, indices, scale, rows)
		return
	}
	parallelRowChunks(rows, chunks, func(sub []int32) {
		spmmTransRowsSeg(dst, src, indptr, indices, scale, sub)
	})
}

func spmmTransRowsSeg(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	for _, r := range rows {
		spmmTransRow(dst, src, indptr, indices, scale, int(r))
	}
}

// checkRowList validates a row-list kernel's list: strictly ascending (which
// also makes it duplicate-free), and inside the chunk list's row space.
func checkRowList(name string, rows, chunks []int32) {
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			panic(fmt.Sprintf("tensor: %s rows not ascending at %d: %d after %d", name, i, rows[i], rows[i-1]))
		}
	}
	if len(rows) > 0 && (rows[0] < 0 || chunks != nil && rows[len(rows)-1] >= chunks[len(chunks)-1]) {
		panic(fmt.Sprintf("tensor: %s rows [%d..%d] outside the chunked row space", name, rows[0], rows[len(rows)-1]))
	}
}

// rowChunkSpan returns the range [c0, c1) of chunk indices that hold part of
// the ascending, non-empty row list: the chunk-split kernels claim only
// those, so a short list never walks the whole chunk index.
func rowChunkSpan(rows, chunks []int32) (c0, c1 int) {
	c0, _ = slices.BinarySearch(chunks, rows[0]+1)
	c1, _ = slices.BinarySearch(chunks, rows[len(rows)-1]+1)
	return c0 - 1, c1
}

// chunkRows returns the part of the ascending row list inside chunk c,
// [chunks[c], chunks[c+1]).
func chunkRows(rows, chunks []int32, c int) []int32 {
	lo, _ := slices.BinarySearch(rows, chunks[c])
	hi, _ := slices.BinarySearch(rows, chunks[c+1])
	return rows[lo:hi]
}
