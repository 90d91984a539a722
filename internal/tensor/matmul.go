package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// rowBlock is the number of output rows each parallel task handles. It is
// also the kernel's row-tile height: a four-row b-panel (the L1-resident
// operand) is reused across all rows of one tile before the next panel loads.
const rowBlock = 64

// maxProcs caps the number of worker goroutines used by parallel kernels.
var maxProcs = runtime.GOMAXPROCS(0)

// rowTask is one parallelGrain invocation: workers claim contiguous chunks
// of [0,rows), grain units at a time, by advancing the atomic cursor, so
// there is no per-chunk lock. Dense kernels use rowBlock-unit grains; the
// sparse-aggregation drivers claim single edge-balanced chunks (grain 1).
type rowTask struct {
	fn    func(lo, hi int)
	rows  int
	grain int64
	next  atomic.Int64
	wg    sync.WaitGroup

	// A chunk-split row-list task (parallelRowChunks) sets listFn instead
	// of fn: cursor unit u is chunk c0+u, and listFn gets the part of list
	// inside it. Holding the list here spares the task a closure.
	listFn       func(sub []int32)
	list, chunks []int32
	c0           int
}

func (t *rowTask) run() {
	rows := t.rows
	g := int(t.grain)
	for {
		hi := int(t.next.Add(t.grain))
		lo := hi - g
		if lo >= rows {
			return
		}
		if hi > rows {
			hi = rows
		}
		if t.listFn == nil {
			t.fn(lo, hi)
			continue
		}
		for c := t.c0 + lo; c < t.c0+hi; c++ {
			t.listFn(chunkRows(t.list, t.chunks, c))
		}
	}
}

var (
	taskPool   = sync.Pool{New: func() any { return new(rowTask) }}
	workerOnce sync.Once
	workQueue  chan *rowTask
)

// startWorkers launches the persistent kernel worker pool. Workers block on
// the queue between tasks; they are started lazily on the first parallel
// kernel call and live for the process lifetime.
func startWorkers() {
	workQueue = make(chan *rowTask, 4*maxProcs)
	for i := 0; i < maxProcs; i++ {
		go func() {
			for t := range workQueue {
				t.run()
				t.wg.Done()
			}
		}()
	}
}

// parallelRows runs fn over [0,rows) in rowBlock chunks claimed from an
// atomic cursor. The caller participates, so progress never depends on a
// pool worker being free; helpers that arrive after the cursor is exhausted
// return immediately. For tiny inputs or single-CPU processes it runs inline.
func parallelRows(rows int, fn func(lo, hi int)) {
	parallelGrain(rows, rowBlock, fn)
}

// parallelGrain runs fn over [0,units) in grain-unit chunks claimed from an
// atomic cursor on the persistent worker pool. Every unit is handed out
// exactly once, so a kernel whose chunks write disjoint output rows is
// deterministic regardless of which worker claims what.
func parallelGrain(units, grain int, fn func(lo, hi int)) {
	if units <= grain || maxProcs == 1 {
		fn(0, units)
		return
	}
	t := taskPool.Get().(*rowTask)
	t.fn = fn
	t.dispatch(units, grain)
}

// dispatch runs the task over [0,units) in grain-unit claims on the pool,
// with the caller participating, then returns it to taskPool.
func (t *rowTask) dispatch(units, grain int) {
	workerOnce.Do(startWorkers)
	helpers := (units+grain-1)/grain - 1
	if helpers > maxProcs-1 {
		helpers = maxProcs - 1
	}
	t.rows, t.grain = units, int64(grain)
	t.next.Store(0)
	t.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		workQueue <- t
	}
	t.run()
	t.wg.Wait()
	t.fn, t.listFn, t.list, t.chunks = nil, nil, nil, nil
	taskPool.Put(t)
}

// Parallelism reports the kernel worker-pool width (GOMAXPROCS at init).
func Parallelism() int { return maxProcs }

// ParallelRowChunks runs fn over the ascending, duplicate-free row list
// rows split at the edge-balanced chunk boundaries chunks (ascending,
// chunks[0] = 0, covering every listed row — graph.AggIndex.Chunks): each
// claim on the shared worker pool takes the part of rows inside one chunk,
// so a full pass over the identity list is balanced like the plan, and a
// mega-degree row is claimed alone. nil chunks, lists of at most spmmGrain
// rows and a one-wide pool run fn(rows) inline. fn's calls must write
// disjoint outputs; then results are independent of scheduling. The graph
// layers drive their per-node sweeps this way, and the row-list kernels
// share its claim loop.
func ParallelRowChunks(rows, chunks []int32, fn func(sub []int32)) {
	if rowsInline("ParallelRowChunks", rows, chunks) {
		fn(rows)
		return
	}
	parallelRowChunks(rows, chunks, fn)
}

// rowsInline validates a row list (checkRowList) and reports whether it
// runs on the calling goroutine: no chunks, a list within the inline grain,
// or a one-wide pool. The row-list kernels test it before building their
// per-segment closure, which would escape to the pool.
func rowsInline(name string, rows, chunks []int32) bool {
	checkRowList(name, rows, chunks)
	return chunks == nil || len(rows) <= spmmGrain || maxProcs == 1
}

// parallelRowChunks runs fn over a validated, non-empty list with chunks:
// one pool claim per chunk holding part of the list (rowTask.run).
func parallelRowChunks(rows, chunks []int32, fn func(sub []int32)) {
	c0, c1 := rowChunkSpan(rows, chunks)
	if c1-c0 == 1 {
		fn(rows)
		return
	}
	t := taskPool.Get().(*rowTask)
	t.listFn, t.list, t.chunks, t.c0 = fn, rows, chunks, c0
	t.dispatch(c1-c0, 1)
}

// ---- vector primitives ----
// Each has an AVX2+FMA fast path over the 8-aligned prefix and a pure-Go
// scalar tail; the scalar loops are the reference semantics on other CPUs.

// AddTo computes dst[j] += src[j]. Lengths must match.
func AddTo(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		addAVX2(&dst[0], &src[0], n8)
		j = n8
	}
	for ; j < n; j++ {
		dst[j] += src[j]
	}
}

// Axpy computes dst[j] += a*src[j]. Lengths must match.
func Axpy(dst, src []float32, a float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(dst), len(src)))
	}
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpyAVX2(&dst[0], &src[0], n8, a)
		j = n8
	}
	for ; j < n; j++ {
		dst[j] += a * src[j]
	}
}

// Dot returns the dot product of a and b. Lengths must match. The AVX2 lane
// reduction differs from sequential scalar accumulation in the low bits;
// every bit-identity contract in the repo is within-build, so every path
// computing a given value goes through this same function either way.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	var s float32
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		s = dotAVX2(&a[0], &b[0], n8)
		j = n8
	}
	for ; j < n; j++ {
		s += a[j] * b[j]
	}
	return s
}

// axpy4 computes dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j].
// All slices have len(dst) elements.
func axpy4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
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
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// dot4 returns the four dot products of a with b0..b3 (all len(a) long).
func dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	i := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		var out [4]float32
		dot4AVX2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &out)
		s0, s1, s2, s3 = out[0], out[1], out[2], out[3]
		i = n8
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; i < n; i++ {
		av := a[i]
		s0 += av * b0[i]
		s1 += av * b1[i]
		s2 += av * b2[i]
		s3 += av * b3[i]
	}
	return
}

// ---- matrix kernels ----

// MatMul computes out = a·b where a is n×k and b is k×m. out must be n×m and
// is overwritten. Row tiles of rowBlock rows are distributed across workers;
// within a tile the kernel walks four-row b panels so each panel stays hot in
// L1 while the tile of out accumulates in L2.
func MatMul(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %d vs %d", a.Cols, b.Rows))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if a.Rows <= rowBlock || maxProcs == 1 {
		matMulTile(out, a, b, 0, a.Rows) // skip the closure: it would escape
		return
	}
	parallelRows(a.Rows, func(lo, hi int) {
		matMulTile(out, a, b, lo, hi)
	})
}

// matMulTile computes rows [lo,hi) of out = a·b.
func matMulTile(out, a, b *Matrix, lo, hi int) {
	k, m := a.Cols, b.Cols
	bd := b.Data
	for i := lo; i < hi; i++ {
		orow := out.Data[i*m : i*m+m]
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
		for i := lo; i < hi; i++ {
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
		for i := lo; i < hi; i++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			Axpy(out.Data[i*m:i*m+m], brow, av)
		}
	}
}

// transAScratch pools the per-worker partial matrices of MatMulTransA so the
// parallel reduction allocates nothing in steady state.
var transAScratch sync.Pool

func getPartial(rows, cols int) *Matrix {
	n := rows * cols
	if v := transAScratch.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.Data) >= n {
			m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
			m.Zero()
			return m
		}
	}
	return New(rows, cols)
}

// MatMulTransA computes out = aᵀ·b where a is k×n and b is k×m. out must be
// n×m and is overwritten. The reduction over k is split across workers with
// pooled per-worker accumulators to avoid write contention.
func MatMulTransA(out, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dim mismatch %d vs %d", a.Rows, b.Rows))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	k, n, m := a.Rows, a.Cols, b.Cols
	workers := maxProcs
	if k < 256 || workers == 1 {
		out.Zero()
		accumTransA(out, a, b, 0, k)
		return
	}
	if workers > 8 {
		workers = 8 // diminishing returns; keeps partial buffers small
	}
	var partials [8]*Matrix
	var wg sync.WaitGroup
	chunk := (k + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > k {
			hi = k
		}
		if lo >= hi {
			break
		}
		partials[w] = getPartial(n, m)
		wg.Add(1)
		go func(p *Matrix, lo, hi int) {
			defer wg.Done()
			accumTransA(p, a, b, lo, hi)
		}(partials[w], lo, hi)
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

// accumTransA accumulates aᵀ·b over rows [lo,hi) of a and b into out, four
// rows of a and b per pass.
func accumTransA(out, a, b *Matrix, lo, hi int) {
	n, m := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	kk := lo
	for ; kk+4 <= hi; kk += 4 {
		a0 := ad[kk*n : kk*n+n]
		a1 := ad[(kk+1)*n : (kk+1)*n+n]
		a2 := ad[(kk+2)*n : (kk+2)*n+n]
		a3 := ad[(kk+3)*n : (kk+3)*n+n]
		b0 := bd[kk*m : kk*m+m]
		b1 := bd[(kk+1)*m : (kk+1)*m+m]
		b2 := bd[(kk+2)*m : (kk+2)*m+m]
		b3 := bd[(kk+3)*m : (kk+3)*m+m]
		for i := 0; i < n; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			axpy4(out.Data[i*m:i*m+m], b0, b1, b2, b3, v0, v1, v2, v3)
		}
	}
	for ; kk < hi; kk++ {
		arow := ad[kk*n : kk*n+n]
		brow := bd[kk*m : kk*m+m]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(out.Data[i*m:i*m+m], brow, av)
		}
	}
}

// transposeBlock is the square tile edge for the blocked transpose; a
// 32×32 float32 tile (4KB read + 4KB written) fits L1 comfortably.
const transposeBlock = 32

// TransposeInto writes aᵀ into out, which must be a.Cols×a.Rows and must not
// alias a. Tiles are copied block-wise so both the reads and the writes stay
// within cache lines instead of striding a full column apart.
func TransposeInto(out, a *Matrix) {
	if out.Rows != a.Cols || out.Cols != a.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto out shape %dx%d, want %dx%d", out.Rows, out.Cols, a.Cols, a.Rows))
	}
	rows, cols := a.Rows, a.Cols
	for ii := 0; ii < rows; ii += transposeBlock {
		ihi := ii + transposeBlock
		if ihi > rows {
			ihi = rows
		}
		for jj := 0; jj < cols; jj += transposeBlock {
			jhi := jj + transposeBlock
			if jhi > cols {
				jhi = cols
			}
			for i := ii; i < ihi; i++ {
				row := a.Data[i*cols : i*cols+cols]
				for j := jj; j < jhi; j++ {
					out.Data[j*rows+i] = row[j]
				}
			}
		}
	}
}

// Transpose returns aᵀ as a new matrix.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	TransposeInto(out, a)
	return out
}
