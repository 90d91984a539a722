package nn

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// GATConv is a single-head graph attention layer (Veličković et al., 2017),
// used by the paper's Table 10 to show BNS-GCN generalizes beyond
// GraphSAGE:
//
//	e_vu = LeakyReLU(a₁·(W h_v) + a₂·(W h_u))   for u ∈ N(v) ∪ {v}
//	α_v· = softmax(e_v·)
//	z_v  = σ( Σ_u α_vu (W h_u) )
//
// Self-attention is always included so isolated nodes still produce output.
// The layer exposes only the staged passes of GraphConv; Forward and
// Backward run a whole pass through them. Every pass needs the aggregation
// plan of the graph it runs over (SetAgg); a pass with no plan installed
// panics.
type GATConv struct {
	InDim, OutDim int
	Act           Activation
	NegSlope      float32 // LeakyReLU slope; default 0.2

	W   *tensor.Matrix // InDim × OutDim
	A1  *tensor.Matrix // 1 × OutDim (attention on destination v)
	A2  *tensor.Matrix // 1 × OutDim (attention on source u)
	DW  *tensor.Matrix
	DA1 *tensor.Matrix
	DA2 *tensor.Matrix

	// agg is the aggregation plan of the graph the passes run over; GAT
	// reads its chunk index and identity row list. The forward's per-node
	// attention sweep parallelizes over chunk splits of its row list (output
	// rows are fully independent, so scheduling cannot change bits); the
	// backward keeps its node-serial sweep, because its dWh/da1/da2
	// accumulations are order-sensitive across nodes.
	agg *graph.AggIndex

	// Caches.
	g     *graph.Graph
	nOut  int
	nAll  int
	h     *tensor.Matrix
	wh    *tensor.Matrix // nAll × OutDim
	alpha [][]float32    // per output node: attention over (self + neighbors)
	eRaw  [][]float32    // pre-LeakyReLU attention logits
	pre   *tensor.Matrix

	// Layer-owned scratch: alpha/eRaw subslice the flat alphaBuf/rawBuf
	// (one segment per output node), and the per-node e/raw allocations of
	// the unoptimized layer are gone. Reused across calls; capacity grows
	// to the largest epoch subgraph seen.
	alphaBuf, rawBuf, s1, s2, dAlpha, da1, da2 []float32
	out, dPre, dWh, dWScratch, dH              *tensor.Matrix
}

// NewGATConv creates a single-head GAT layer with Xavier initialization.
func NewGATConv(inDim, outDim int, act Activation, rng *tensor.RNG) *GATConv {
	l := &GATConv{
		InDim:    inDim,
		OutDim:   outDim,
		Act:      act,
		NegSlope: 0.2,
		W:        tensor.New(inDim, outDim),
		A1:       tensor.New(1, outDim),
		A2:       tensor.New(1, outDim),
		DW:       tensor.New(inDim, outDim),
		DA1:      tensor.New(1, outDim),
		DA2:      tensor.New(1, outDim),
	}
	tensor.XavierInit(l.W, inDim, outDim, rng)
	tensor.XavierInit(l.A1, outDim, 1, rng)
	tensor.XavierInit(l.A2, outDim, 1, rng)
	return l
}

// Params implements Layer.
func (l *GATConv) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.A1, l.A2} }

// Grads implements Layer.
func (l *GATConv) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.DW, l.DA1, l.DA2} }

// ZeroGrad implements Layer.
func (l *GATConv) ZeroGrad() { zeroGradAll(l.Grads()) }

// InputDim implements GraphConv.
func (l *GATConv) InputDim() int { return l.InDim }

// OutputDim implements GraphConv.
func (l *GATConv) OutputDim() int { return l.OutDim }

// passRows implements GraphConv.
func (l *GATConv) passRows() []int32 { return l.agg.Ident[:l.nAll] }

// SetAgg installs the aggregation plan for subsequent passes (GAT uses its
// chunk index and identity row list). ai must be built from the same graph
// the passes receive.
func (l *GATConv) SetAgg(ai *graph.AggIndex) { l.agg = ai }

// ForwardBegin starts a forward pass: it validates shapes, installs the
// backward caches, and returns the output matrix whose rows ForwardRows
// will fill. ForwardPrep must cover a node's feature row before any output
// row that attends to it runs. Chunking cannot change results — every output
// row is produced by the same per-node computation in the same flat buffer
// slot — so any duplicate-free partition of [0, nOut) reproduces the full
// pass (Forward) bit for bit; the schedule property tests pin this against
// the serial reference. Attention normalizes by softmax, so the degree
// normalizer is unused.
func (l *GATConv) ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int, _ []float32) *tensor.Matrix {
	if h.Cols != l.InDim {
		panic(fmt.Sprintf("nn: GATConv input dim %d, want %d", h.Cols, l.InDim))
	}
	if g.N != h.Rows || nOut > h.Rows {
		panic(fmt.Sprintf("nn: GATConv graph %d nodes, features %d rows, nOut %d", g.N, h.Rows, nOut))
	}
	requireAgg("GATConv", l.agg)
	l.g, l.nOut, l.nAll, l.h = g, nOut, h.Rows, h
	ensureMat(&l.wh, h.Rows, l.OutDim)
	ensureF32(&l.s1, h.Rows)
	ensureF32(&l.s2, h.Rows)
	// One attention entry per (node, self∪neighbor) pair, packed flat.
	total := nOut + int(g.Indptr[nOut]-g.Indptr[0])
	ensureF32(&l.alphaBuf, total)
	ensureF32(&l.rawBuf, total)
	if cap(l.alpha) < nOut {
		l.alpha = make([][]float32, nOut)
		l.eRaw = make([][]float32, nOut)
	}
	l.alpha = l.alpha[:nOut]
	l.eRaw = l.eRaw[:nOut]
	ensureMat(&l.pre, nOut, l.OutDim)
	return ensureMat(&l.out, nOut, l.OutDim)
}

// ForwardPrep computes Wh and the attention scores s1/s2 for the listed
// feature rows. Rows are independent, so lists may run in any order — the
// arrival-order drain preps one peer's halo slots the moment that peer's
// payload lands; each row must be covered exactly once per pass.
func (l *GATConv) ForwardPrep(rows []int32) {
	tensor.MatMulRows(l.wh, l.h, l.W, rows)
	a1 := l.A1.Row(0)
	a2 := l.A2.Row(0)
	for _, u32 := range rows {
		u := int(u32)
		l.s1[u] = tensor.Dot(a1, l.wh.Row(u))
		l.s2[u] = tensor.Dot(a2, l.wh.Row(u))
	}
}

// ForwardRows computes the output rows listed in rows, ascending (each row
// of [0, nOut) must appear exactly once across all calls of one pass). Rows
// are independent (see forwardNode), so a list runs in parallel pieces
// split at the plan's edge-balanced chunk boundaries with unchanged bits —
// a full pass, the pipelined engine's halo-free bucket, or one peer's
// unlocked rows alike.
func (l *GATConv) ForwardRows(rows []int32) {
	tensor.ParallelRowChunks(rows, l.agg.Chunks, l.forwardList)
}

// forwardList runs forwardNode over a row list.
func (l *GATConv) forwardList(rows []int32) {
	for _, v := range rows {
		l.forwardNode(int(v))
	}
}

// forwardNode computes attention and the activated output for node v. Its
// alpha/raw segment lives at the deterministic flat offset
// v + Indptr[v]−Indptr[0] — the packing a sequential full pass produces — so
// chunk order cannot move entries.
func (l *GATConv) forwardNode(v int) {
	g := l.g
	nbrs := g.Neighbors(int32(v))
	k := len(nbrs) + 1 // self first, then neighbors
	off := v + int(g.Indptr[v]-g.Indptr[0])
	e := l.alphaBuf[off : off+k]
	raw := l.rawBuf[off : off+k]
	s1, s2 := l.s1, l.s2
	// Per-edge coefficient fill: e_i = s1[v] + s2[u_i], self first.
	e[0] = s1[v] + s2[v]
	s1v := s1[v]
	en := e[1:]
	for i, u := range nbrs {
		en[i] = s1v + s2[u]
	}
	copy(raw, e)
	l.eRaw[v] = raw
	for i, x := range e {
		if x < 0 {
			e[i] = x * l.NegSlope
		}
	}
	// Softmax over k entries.
	mx := e[0]
	for _, x := range e {
		if x > mx {
			mx = x
		}
	}
	var sum float64
	for i, x := range e {
		ex := math.Exp(float64(x - mx))
		e[i] = float32(ex)
		sum += ex
	}
	inv := float32(1 / sum)
	for i := range e {
		e[i] *= inv
	}
	l.alpha[v] = e
	// z_v = Σ α · Wh: self term, then the attention-weighted neighbor
	// gather on the engine's blocked axpy (bit-identical to sequential
	// per-edge Axpy).
	row := l.pre.Row(v)
	self := l.wh.Row(v)
	for j, x := range self {
		row[j] = e[0] * x
	}
	tensor.GatherAxpy(row, l.wh, nbrs, e[1:])
	activationRow(l.out.Row(v), l.Act, row)
}

// BackwardBegin starts a staged backward pass: it computes the
// pre-activation gradient for every output row and zeroes the Wh-gradient
// and attention-vector accumulators. The staged schedule (BackwardBegin →
// BackwardHalo → BackwardFinish) is bit-identical whatever the halo split:
// halo rows of dWh receive contributions only from outputs with a halo
// neighbor, sweeps are destination-filtered so every += lands on each
// destination row (and on da1/da2) in exactly the order of one unfiltered
// node-serial sweep, and the dH matmuls are per-row stable.
func (l *GATConv) BackwardBegin(dOut *tensor.Matrix) {
	if dOut.Rows != l.nOut || dOut.Cols != l.OutDim {
		panic(fmt.Sprintf("nn: GATConv backward shape %dx%d, want %dx%d", dOut.Rows, dOut.Cols, l.nOut, l.OutDim))
	}
	dPre := ensureMat(&l.dPre, dOut.Rows, dOut.Cols)
	copy(dPre.Data, dOut.Data)
	activationGrad(l.Act, dPre, l.pre)
	dWh := ensureMat(&l.dWh, l.nAll, l.OutDim)
	dWh.Zero()
	da1 := ensureF32(&l.da1, l.OutDim)
	da2 := ensureF32(&l.da2, l.OutDim)
	for j := range da1 {
		da1[j] = 0
		da2[j] = 0
	}
	ensureMat(&l.dH, l.nAll, l.InDim) // rows computed stage by stage
}

// BackwardHalo completes the listed halo rows of the input gradient so they
// can be sent while the rest of the backward pass runs. haloSrc must list,
// in ascending order, every output row with at least one neighbor ≥ nIn;
// haloSlots lists the halo rows whose gradients are needed (the sampled
// boundary slots). The returned matrix is the shared input-gradient
// accumulator: the haloSlots rows are final, rows < nIn complete only after
// BackwardFinish, and unlisted halo rows stay undefined.
func (l *GATConv) BackwardHalo(haloSrc, haloSlots []int32, nIn int) *tensor.Matrix {
	for _, v := range haloSrc {
		l.backwardNode(int(v), nIn, l.nAll, false)
	}
	tensor.MatMulTransBRows(l.dH, l.dWh, l.W, haloSlots)
	return l.dH
}

// BackwardFinish accumulates DW/DA1/DA2 and completes the inner rows
// [0, nIn) of the input gradient. The sweep revisits every output row (the
// attention backward of a halo-dependent row also feeds inner destinations),
// so freeSrc is unused by GAT — SAGE needs it.
func (l *GATConv) BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix {
	for v := 0; v < l.nOut; v++ {
		l.backwardNode(v, 0, nIn, true)
	}
	l.backwardParams()
	tensor.MatMulTransBRows(l.dH, l.dWh, l.W, l.agg.Ident[:nIn])
	return l.dH
}

// backwardNode runs the attention backward for output node v, applying
// gradient writes only to dWh destination rows u with destLo ≤ u < destHi
// and accumulating da1/da2 only when accumA is set. Splitting one sweep into
// destination-filtered sweeps preserves, for every destination row and for
// da1/da2, the exact += order of the unfiltered sweep (the staged schedule
// recomputes dα for halo-dependent rows, which is pure recomputation of the
// same values). The inner loops run on the engine primitives: dα is a
// four-blocked gather of dots (dz loaded once per four neighbor rows), and
// every accumulation row op is a SIMD Axpy.
func (l *GATConv) backwardNode(v, destLo, destHi int, accumA bool) {
	nbrs := l.g.Neighbors(int32(v))
	alpha := l.alpha[v]
	raw := l.eRaw[v]
	dz := l.dPre.Row(v)
	k := len(alpha)

	// dα_i = dz · Wh_{u_i} (self first), then dWh_{u_i} += α_i dz in the
	// same self-then-ascending-i order as the fused sweep it replaces.
	dAlpha := ensureF32(&l.dAlpha, k)
	dAlpha[0] = tensor.Dot(dz, l.wh.Row(v))
	tensor.GatherDots(dAlpha[1:], dz, l.wh, nbrs)
	if v >= destLo && v < destHi {
		tensor.Axpy(l.dWh.Row(v), dz, alpha[0])
	}
	for i, u32 := range nbrs {
		if u := int(u32); u >= destLo && u < destHi {
			tensor.Axpy(l.dWh.Row(u), dz, alpha[i+1])
		}
	}
	// Softmax backward: de_i = α_i (dα_i − Σ_j α_j dα_j). The inner product
	// is a per-edge dot over the attention row; every computation of it goes
	// through the same SIMD Dot, so the staged recomputation for
	// halo-dependent rows reproduces identical bits.
	inner := tensor.Dot(alpha, dAlpha)
	a1 := l.A1.Row(0)
	a2 := l.A2.Row(0)
	whv := l.wh.Row(v)
	for i := 0; i < k; i++ {
		de := alpha[i] * (dAlpha[i] - inner)
		// LeakyReLU backward.
		if raw[i] < 0 {
			de *= l.NegSlope
		}
		// e_i = a1·Wh_v + a2·Wh_{u_i}.
		u := v
		if i > 0 {
			u = int(nbrs[i-1])
		}
		if accumA {
			tensor.Axpy(l.da1, whv, de)
			tensor.Axpy(l.da2, l.wh.Row(u), de)
		}
		if v >= destLo && v < destHi {
			tensor.Axpy(l.dWh.Row(v), a1, de)
		}
		if u >= destLo && u < destHi {
			tensor.Axpy(l.dWh.Row(u), a2, de)
		}
	}
}

// backwardParams folds the per-pass accumulators into DA1/DA2 and DW.
func (l *GATConv) backwardParams() {
	for j := 0; j < l.OutDim; j++ {
		l.DA1.Data[j] += l.da1[j]
		l.DA2.Data[j] += l.da2[j]
	}
	dW := ensureMat(&l.dWScratch, l.InDim, l.OutDim)
	tensor.MatMulTransA(dW, l.h, l.dWh)
	l.DW.Add(dW)
}
