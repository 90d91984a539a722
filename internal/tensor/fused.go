package tensor

import (
	"fmt"
	"sync"
)

// Fused aggregate-then-project kernels for the SAGE layer's hot path:
//
//	pre = [diag(scale)·A·h | h] · w
//
// computed WITHOUT ever materializing the nOut × 2·in concat matrix. The
// unfused pipeline (SpMM into the concat's left half, a row-copy pass into
// the right half, then MatMul over the concat) streams the same nOut × 2·in
// floats through DRAM three times; the fused kernels gather each aggregated
// row into z and feed it to the projection FMAs while the row is still hot in
// L1, splitting w into its aggregation-half (rows [0,in)) and self-half
// (rows [in,2·in)) panels. Only z (nOut × in, needed by the backward for dW)
// is written — the self half is read straight from h and the concat buffer
// and its copy pass disappear entirely.
//
// Bit-identity. Per output row the projection performs the EXACT operation
// sequence of matMulTile over the virtual concat row [z_v | h_v]: the same
// kk-panel walk over the full 2·in width — panels are never restarted at the
// z/h boundary, so axpy4 groupings are unchanged even when in % 4 != 0 — the
// same all-four-zero coefficient skip, and the same scalar-tail Axpy with
// zero skip. The aggregation into z is spmmRow itself. Rows are independent,
// so every partition of the row space (chunks, row lists) is bit-identical
// in any execution order, exactly like SpMM/MatMul. The fused property tests
// pin fused ≡ SpMM+copy+MatMul bitwise on odd/prime widths, zero/mega-degree
// rows, random row partitions, and the forced-parallel path.
//
// Every kernel takes an explicit row list: a full pass lists every row (the
// identity list graph.AggIndex keeps), a pipelined chunk lists its subset.
// The backward is fused symmetrically:
//
//	MatMulTransBSplitRows — dConcat = dPre·wᵀ with the left half written to
//	                        dz and the right half (the self term) written
//	                        straight into the input-gradient rows, one
//	                        sweep, no dConcat.
//	MatMulTransASplit     — dW = [z|h]ᵀ·dPre reading the two operand halves
//	                        in place.

// fusedRowBlock is the gather/project interleave depth: within one claim the
// kernel aggregates this many z rows, then projects them while they are still
// cache-hot, reusing each four-row w panel across the whole block (the same
// panel-reuse tiling as matMulTile's rowBlock).
const fusedRowBlock = rowBlock

// checkFused validates the shared fused-forward contract: z as wide as h,
// w stacking an aggregation half on a self half, one CSR row per output row.
func checkFused(name string, pre, z, h, w *Matrix, indptr []int64, scale []float32) {
	if z.Cols != h.Cols {
		panic(fmt.Sprintf("tensor: %s z width %d != h width %d", name, z.Cols, h.Cols))
	}
	if w.Rows != 2*z.Cols {
		panic(fmt.Sprintf("tensor: %s w rows %d, want 2*%d", name, w.Rows, z.Cols))
	}
	if pre.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: %s pre width %d != w cols %d", name, pre.Cols, w.Cols))
	}
	if pre.Rows > z.Rows || pre.Rows > h.Rows {
		panic(fmt.Sprintf("tensor: %s pre rows %d > z rows %d or h rows %d", name, pre.Rows, z.Rows, h.Rows))
	}
	if len(indptr) < pre.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), pre.Rows+1))
	}
	if scale != nil && len(scale) < pre.Rows {
		panic(fmt.Sprintf("tensor: %s scale len %d, need %d", name, len(scale), pre.Rows))
	}
}

// SpMMMatMulRows computes, for every row r listed in rows:
//
//	z.Row(r)   = scale[r] · Σ_{e ∈ CSR row r} h.Row(indices[e])
//	pre.Row(r) = [z.Row(r) | h.Row(r)] · w
//
// i.e. rows of pre = [diag(scale)·A·h | h]·w with the concat fused away,
// leaving all other rows untouched. z must be as wide as h (the caller keeps
// it for the backward's dW); w is (2·h.Cols) × pre.Cols. rows must be
// ascending and duplicate-free; a full pass lists every row. chunks is an
// edge-balanced row-chunk boundary list over the same CSR (use
// graph.AggIndex.ChunksFor with the projection's per-row cost so wide layers
// stay balanced): each pool claim takes the part of rows inside one chunk.
// nil chunks runs the list on the calling goroutine. Bit-identical per row
// to SpMM + self-copy + MatMul over the concat.
func SpMMMatMulRows(pre, z, h, w *Matrix, indptr []int64, indices []int32, scale []float32, chunks, rows []int32) {
	checkFused("SpMMMatMulRows", pre, z, h, w, indptr, scale)
	if rowsInline("SpMMMatMulRows", rows, chunks) {
		spmmMatMulRowsSeg(pre, z, h, w, indptr, indices, scale, rows)
		return
	}
	parallelRowChunks(rows, chunks, func(sub []int32) {
		spmmMatMulRowsSeg(pre, z, h, w, indptr, indices, scale, sub)
	})
}

// spmmMatMulRowsSeg runs the fused pass over a row list: fusedRowBlock rows
// are aggregated into z, then projected while hot.
func spmmMatMulRowsSeg(pre, z, h, w *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	for s := 0; s < len(rows); s += fusedRowBlock {
		e := s + fusedRowBlock
		if e > len(rows) {
			e = len(rows)
		}
		sub := rows[s:e]
		for _, r := range sub {
			spmmRow(z, h, indptr, indices, scale, int(r))
		}
		fusedProjectRows(pre, z, h, w, sub)
	}
}

// fusedProjectRows computes the listed pre rows over the virtual concat
// [z|h] with matMulTile's exact per-row operation sequence: kk panels of four
// over the FULL 2·in width (never restarted at the z/h boundary), the
// identical all-four-zero skip, and the identical scalar tail. Coefficient
// kk of row i reads z when kk < in, h when kk ≥ in; panels wholly on one
// side read their four coefficients straight from that row, and only a
// panel straddling the boundary (in % 4 != 0) resolves each one. The
// w-panel reuse across the row set is matMulRowsSeg's.
func fusedProjectRows(pre, z, h, w *Matrix, rows []int32) {
	in := z.Cols
	k, m := 2*in, w.Cols
	wd, zd, hd := w.Data, z.Data, h.Data
	pd := pre.Data
	for _, v := range rows {
		orow := pd[int(v)*m : int(v)*m+m]
		for j := range orow {
			orow[j] = 0
		}
	}
	kk := 0
	for ; kk+4 <= k; kk += 4 {
		b0 := wd[kk*m : kk*m+m]
		b1 := wd[(kk+1)*m : (kk+1)*m+m]
		b2 := wd[(kk+2)*m : (kk+2)*m+m]
		b3 := wd[(kk+3)*m : (kk+3)*m+m]
		switch {
		case kk+4 <= in: // aggregation-half panel: coefficients from z
			for _, v := range rows {
				i := int(v)
				arow := zd[i*in+kk : i*in+kk+4]
				a0, a1, a2, a3 := arow[0], arow[1], arow[2], arow[3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue // zero-degree row panel
				}
				axpy4(pd[i*m:i*m+m], b0, b1, b2, b3, a0, a1, a2, a3)
			}
		case kk >= in: // self-half panel: coefficients from h
			off := kk - in
			for _, v := range rows {
				i := int(v)
				arow := hd[i*in+off : i*in+off+4]
				a0, a1, a2, a3 := arow[0], arow[1], arow[2], arow[3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue // dropout-sparse input panel
				}
				axpy4(pd[i*m:i*m+m], b0, b1, b2, b3, a0, a1, a2, a3)
			}
		default: // panel straddles the boundary (in % 4 != 0)
			for _, v := range rows {
				i := int(v)
				a0 := concatCoef(zd, hd, in, i, kk)
				a1 := concatCoef(zd, hd, in, i, kk+1)
				a2 := concatCoef(zd, hd, in, i, kk+2)
				a3 := concatCoef(zd, hd, in, i, kk+3)
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				axpy4(pd[i*m:i*m+m], b0, b1, b2, b3, a0, a1, a2, a3)
			}
		}
	}
	for ; kk < k; kk++ {
		brow := wd[kk*m : kk*m+m]
		for _, v := range rows {
			i := int(v)
			av := concatCoef(zd, hd, in, i, kk)
			if av == 0 {
				continue
			}
			Axpy(pd[i*m:i*m+m], brow, av)
		}
	}
}

// concatCoef reads element kk of the virtual concat row [z_i | h_i].
func concatCoef(zd, hd []float32, in, i, kk int) float32 {
	if kk < in {
		return zd[i*in+kk]
	}
	return hd[i*in+kk-in]
}

// checkSplitB validates the fused backward-sweep contract.
func checkSplitB(name string, dz, dSelf, dPre, w *Matrix) {
	if dz.Cols != dSelf.Cols {
		panic(fmt.Sprintf("tensor: %s dz width %d != dSelf width %d", name, dz.Cols, dSelf.Cols))
	}
	if w.Rows != 2*dz.Cols {
		panic(fmt.Sprintf("tensor: %s w rows %d, want 2*%d", name, w.Rows, dz.Cols))
	}
	if w.Cols != dPre.Cols {
		panic(fmt.Sprintf("tensor: %s w cols %d != dPre width %d", name, w.Cols, dPre.Cols))
	}
	if dz.Rows < dPre.Rows || dSelf.Rows < dPre.Rows {
		panic(fmt.Sprintf("tensor: %s dz rows %d / dSelf rows %d < dPre rows %d", name, dz.Rows, dSelf.Rows, dPre.Rows))
	}
}

// MatMulTransBSplitRows computes, for every row v listed in rows, the row
// dPre.Row(v)·wᵀ of the concat gradient — writing its left half (the
// aggregation gradient dz_v) to dz.Row(v) and its right half (the self term)
// straight into dSelf.Row(v), which it OVERWRITES. One sweep replaces the
// unfused MatMulTransBRows-into-dConcat plus the self-copy pass; the j-blocked
// dot4 walk runs over the full 2·in width so every dot is grouped exactly as
// matMulTransBRowsSeg groups it — bit-identical to computing the dConcat row
// and splitting it afterwards. Rows are independent: the staged backward's
// halo and finish sweeps each cover their source subset.
func MatMulTransBSplitRows(dz, dSelf, dPre, w *Matrix, rows []int32) {
	checkSplitB("MatMulTransBSplitRows", dz, dSelf, dPre, w)
	if len(rows) <= rowBlock || maxProcs == 1 {
		matMulTransBSplitRowsSeg(dz, dSelf, dPre, w, rows)
		return
	}
	parallelRows(len(rows), func(lo, hi int) {
		matMulTransBSplitRowsSeg(dz, dSelf, dPre, w, rows[lo:hi])
	})
}

func matMulTransBSplitRowsSeg(dz, dSelf, dPre, w *Matrix, rows []int32) {
	in := dz.Cols
	k, m := dPre.Cols, w.Rows
	wd := w.Data
	j := 0
	for ; j+4 <= m; j += 4 {
		b0 := wd[j*k : j*k+k]
		b1 := wd[(j+1)*k : (j+1)*k+k]
		b2 := wd[(j+2)*k : (j+2)*k+k]
		b3 := wd[(j+3)*k : (j+3)*k+k]
		for _, v := range rows {
			i := int(v)
			arow := dPre.Data[i*k : i*k+k]
			s0, s1, s2, s3 := dot4(arow, b0, b1, b2, b3)
			splitWrite4(dz, dSelf, in, i, j, s0, s1, s2, s3)
		}
	}
	for ; j < m; j++ {
		brow := wd[j*k : j*k+k]
		for _, v := range rows {
			i := int(v)
			splitWrite(dz, dSelf, in, i, j, Dot(dPre.Data[i*k:i*k+k], brow))
		}
	}
}

// splitWrite4 stores four consecutive concat-gradient elements j..j+3 of row
// i across the dz/dSelf boundary at column `in`.
func splitWrite4(dz, dSelf *Matrix, in, i, j int, s0, s1, s2, s3 float32) {
	switch {
	case j+4 <= in:
		o := dz.Data[i*in+j : i*in+j+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	case j >= in:
		sc := dSelf.Cols
		o := dSelf.Data[i*sc+j-in : i*sc+j-in+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	default:
		splitWrite(dz, dSelf, in, i, j, s0)
		splitWrite(dz, dSelf, in, i, j+1, s1)
		splitWrite(dz, dSelf, in, i, j+2, s2)
		splitWrite(dz, dSelf, in, i, j+3, s3)
	}
}

func splitWrite(dz, dSelf *Matrix, in, i, j int, s float32) {
	if j < in {
		dz.Data[i*in+j] = s
	} else {
		dSelf.Data[i*dSelf.Cols+j-in] = s
	}
}

// MatMulTransASplit computes out = [z|h]ᵀ·dPre where z is n×in, h's first n
// rows are the self half, and dPre is n×m; out must be 2·in × m and is
// overwritten. This is MatMulTransA over the virtual concat with the operand
// halves read in place: per four-row pass the column loop runs [0,in) against
// z and [in,2·in) against h with accumTransA's exact per-column operations
// (same zero skip, same axpy4), so the result is bit-identical to
// MatMulTransA(out, concat, dPre) — including the parallel reduction, which
// mirrors MatMulTransA's worker split and in-order fold.
func MatMulTransASplit(out, z, h, dPre *Matrix) {
	if z.Cols != h.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransASplit z width %d != h width %d", z.Cols, h.Cols))
	}
	if z.Rows != dPre.Rows || h.Rows < dPre.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransASplit z rows %d / h rows %d vs dPre rows %d", z.Rows, h.Rows, dPre.Rows))
	}
	if out.Rows != 2*z.Cols || out.Cols != dPre.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransASplit out shape %dx%d, want %dx%d", out.Rows, out.Cols, 2*z.Cols, dPre.Cols))
	}
	k, n, m := dPre.Rows, out.Rows, out.Cols
	workers := maxProcs
	if k < 256 || workers == 1 {
		out.Zero()
		accumTransASplit(out, z, h, dPre, 0, k)
		return
	}
	if workers > 8 {
		workers = 8 // diminishing returns; keeps partial buffers small
	}
	var partials [8]*Matrix
	var wg sync.WaitGroup
	chunk := (k + workers - 1) / workers
	for wi := 0; wi < workers; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if hi > k {
			hi = k
		}
		if lo >= hi {
			break
		}
		partials[wi] = getPartial(n, m)
		wg.Add(1)
		go func(p *Matrix, lo, hi int) {
			defer wg.Done()
			accumTransASplit(p, z, h, dPre, lo, hi)
		}(partials[wi], lo, hi)
	}
	wg.Wait()
	out.Zero()
	for _, p := range partials[:workers] {
		if p != nil {
			out.Add(p)
			transAScratch.Put(p)
		}
	}
}

// accumTransASplit accumulates [z|h]ᵀ·b over rows [lo,hi) into out, four
// rows per pass, reading the virtual concat's halves in place.
func accumTransASplit(out, z, h, b *Matrix, lo, hi int) {
	in := z.Cols
	n, m := 2*in, b.Cols
	zd, hd, bd := z.Data, h.Data, b.Data
	hw := h.Cols
	od := out.Data
	kk := lo
	for ; kk+4 <= hi; kk += 4 {
		z0 := zd[kk*in : kk*in+in]
		z1 := zd[(kk+1)*in : (kk+1)*in+in]
		z2 := zd[(kk+2)*in : (kk+2)*in+in]
		z3 := zd[(kk+3)*in : (kk+3)*in+in]
		h0 := hd[kk*hw : kk*hw+in]
		h1 := hd[(kk+1)*hw : (kk+1)*hw+in]
		h2 := hd[(kk+2)*hw : (kk+2)*hw+in]
		h3 := hd[(kk+3)*hw : (kk+3)*hw+in]
		b0 := bd[kk*m : kk*m+m]
		b1 := bd[(kk+1)*m : (kk+1)*m+m]
		b2 := bd[(kk+2)*m : (kk+2)*m+m]
		b3 := bd[(kk+3)*m : (kk+3)*m+m]
		for i := 0; i < in; i++ {
			v0, v1, v2, v3 := z0[i], z1[i], z2[i], z3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			axpy4(od[i*m:i*m+m], b0, b1, b2, b3, v0, v1, v2, v3)
		}
		for i := in; i < n; i++ {
			c := i - in
			v0, v1, v2, v3 := h0[c], h1[c], h2[c], h3[c]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			axpy4(od[i*m:i*m+m], b0, b1, b2, b3, v0, v1, v2, v3)
		}
	}
	for ; kk < hi; kk++ {
		zrow := zd[kk*in : kk*in+in]
		hrow := hd[kk*hw : kk*hw+in]
		brow := bd[kk*m : kk*m+m]
		for i, av := range zrow {
			if av == 0 {
				continue
			}
			Axpy(od[i*m:i*m+m], brow, av)
		}
		for c, av := range hrow {
			if av == 0 {
				continue
			}
			Axpy(od[(in+c)*m:(in+c)*m+m], brow, av)
		}
	}
}
