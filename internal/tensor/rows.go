package tensor

import "fmt"

// Row-list matmul kernels for the graph layers. A layer's forward/backward
// runs over row lists — the whole identity list for a full pass,
// halo-independent rows while boundary features are in flight and
// halo-dependent rows on arrival for a pipelined one — so listing cannot be
// allowed to change a single output bit. These kernels guarantee that by
// construction: each output row is computed with exactly the per-row
// arithmetic of matMulTile (same k-panel walk, same axpy4/dot4 primitives,
// same accumulation order), and rows are fully independent of each other, so
// any duplicate-free partition of the row space reproduces the full-list
// result bit for bit. The kernel property tests pin this on odd/prime shapes
// with random row partitions.

// MatMulRows computes out.Row(v) = a.Row(v)·b for every v in rows, leaving
// all other rows of out untouched. rows must be in-range and duplicate-free
// (order is irrelevant: rows are independent). Bit-identical per row to
// MatMul.
func MatMulRows(out, a, b *Matrix, rows []int32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulRows inner dim mismatch %d vs %d", a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulRows out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if len(rows) <= rowBlock || maxProcs == 1 {
		matMulRowsSeg(out, a, b, rows)
		return
	}
	parallelRows(len(rows), func(lo, hi int) {
		matMulRowsSeg(out, a, b, rows[lo:hi])
	})
}

// matMulRowsSeg is matMulTile iterating an explicit row list instead of a
// contiguous range; the b-panel reuse across the row set is preserved.
func matMulRowsSeg(out, a, b *Matrix, rows []int32) {
	k, m := a.Cols, b.Cols
	bd := b.Data
	for _, v := range rows {
		orow := out.Data[int(v)*m : int(v)*m+m]
		for j := range orow {
			orow[j] = 0
		}
	}
	kk := 0
	for ; kk+4 <= k; kk += 4 {
		b0 := bd[kk*m : kk*m+m]
		b1 := bd[(kk+1)*m : (kk+1)*m+m]
		b2 := bd[(kk+2)*m : (kk+2)*m+m]
		b3 := bd[(kk+3)*m : (kk+3)*m+m]
		for _, v := range rows {
			i := int(v)
			arow := a.Data[i*k : i*k+k]
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue // dropout-sparse input panel
			}
			axpy4(out.Data[i*m:i*m+m], b0, b1, b2, b3, a0, a1, a2, a3)
		}
	}
	for ; kk < k; kk++ {
		brow := bd[kk*m : kk*m+m]
		for _, v := range rows {
			i := int(v)
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			Axpy(out.Data[i*m:i*m+m], brow, av)
		}
	}
}

// MatMulTransBRows computes out.Row(v) = a.Row(v)·bᵀ for every v in rows,
// where a is n×k and b is m×k, leaving all other rows of out (n×m)
// untouched. rows must be in-range and duplicate-free (order is irrelevant).
// Four b rows are dotted against each listed a row at once, so the 4×k b
// panel is reused across the whole row set.
func MatMulTransBRows(out, a, b *Matrix, rows []int32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransBRows inner dim mismatch %d vs %d", a.Cols, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransBRows out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	if len(rows) <= rowBlock || maxProcs == 1 {
		matMulTransBRowsSeg(out, a, b, rows)
		return
	}
	parallelRows(len(rows), func(lo, hi int) {
		matMulTransBRowsSeg(out, a, b, rows[lo:hi])
	})
}

func matMulTransBRowsSeg(out, a, b *Matrix, rows []int32) {
	k, m := a.Cols, b.Rows
	bd := b.Data
	j := 0
	for ; j+4 <= m; j += 4 {
		b0 := bd[j*k : j*k+k]
		b1 := bd[(j+1)*k : (j+1)*k+k]
		b2 := bd[(j+2)*k : (j+2)*k+k]
		b3 := bd[(j+3)*k : (j+3)*k+k]
		for _, v := range rows {
			i := int(v)
			arow := a.Data[i*k : i*k+k]
			s0, s1, s2, s3 := dot4(arow, b0, b1, b2, b3)
			o := out.Data[i*m+j : i*m+j+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; j < m; j++ {
		brow := bd[j*k : j*k+k]
		for _, v := range rows {
			i := int(v)
			out.Data[i*m+j] = Dot(a.Data[i*k:i*k+k], brow)
		}
	}
}
