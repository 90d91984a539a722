package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// SAGEConv is a GraphSAGE layer with a mean aggregator, the paper's primary
// model (Section 2):
//
//	z_v   = mean_{u ∈ N(v)} h_u                     (Eq. 1)
//	h'_v  = σ(W · concat(z_v, h_v) + b)             (Eq. 2)
//
// The mean is normalized by invDeg[v], supplied by the caller. In exact
// training invDeg[v] = 1/|N_global(v)|; under BNS the caller keeps the
// global-degree normalizer while halo feature rows arrive pre-scaled by 1/p,
// which makes z_v an unbiased estimator of the full-graph aggregation
// (Section 3.2).
//
// Aggregation runs on the FUSED aggregate-project engine
// (tensor.SpMMMatMulRows and the MatMulTrans*Split family): the forward gathers
// each aggregated row z_v and feeds it to the projection FMAs while still
// cache-hot — the nOut × 2·InDim concat matrix of the textbook formulation
// is never materialized, eliminating its three DRAM round-trips (SpMM write,
// self-copy write, MatMul read) from the epoch hot path. Only z (needed by
// the backward's dW) is kept. The backward is fused symmetrically: one sweep
// produces the aggregation gradient dz AND writes the self term straight
// into the input-gradient rows, and dW reads [z|h] in place. The backward
// gather runs over the TRANSPOSED index, so everything parallelizes over
// edge-balanced chunks with no scatter races; chunk weights include the
// per-row projection cost (graph.AggIndex.ChunksFor) so wide layers stay
// balanced. The per-destination accumulation order is fixed by construction:
// the self term first (an overwrite), then the incoming neighbor
// contributions in ascending source order — exactly what the textbook
// explicit-concat formulation produces, so the two are bit-identical (the
// aggregation property tests compare every pass against that reference,
// and the fused kernel tests pin the kernels).
//
// The layer exposes only the staged passes of GraphConv; Forward and
// Backward run a whole pass through them. Every pass needs the aggregation
// plan of the graph it runs over (SetAgg); a pass with no plan installed
// panics.
type SAGEConv struct {
	InDim, OutDim int
	Act           Activation

	W  *tensor.Matrix // (2*InDim) × OutDim
	B  *tensor.Matrix // 1 × OutDim
	DW *tensor.Matrix
	DB *tensor.Matrix

	// agg is the aggregation plan (transposed index + edge-balanced
	// chunks) for the graph the passes run over.
	agg *graph.AggIndex

	// Forward caches for backward.
	g      *graph.Graph
	nOut   int
	nAll   int
	invDeg []float32
	hIn    *tensor.Matrix // input features of the in-progress chunked pass
	z      *tensor.Matrix // nOut × InDim aggregated half of [z|h]
	pre    *tensor.Matrix // nOut × OutDim

	// Layer-owned scratch, reused across calls so steady-state training
	// allocates nothing. All are fully rewritten (or zeroed) before use.
	// dz is the aggregation gradient.
	out, dPre, dz, dH, dWScratch *tensor.Matrix
}

// NewSAGEConv creates a SAGE layer with Xavier-initialized weights.
func NewSAGEConv(inDim, outDim int, act Activation, rng *tensor.RNG) *SAGEConv {
	l := &SAGEConv{
		InDim:  inDim,
		OutDim: outDim,
		Act:    act,
		W:      tensor.New(2*inDim, outDim),
		B:      tensor.New(1, outDim),
		DW:     tensor.New(2*inDim, outDim),
		DB:     tensor.New(1, outDim),
	}
	tensor.XavierInit(l.W, 2*inDim, outDim, rng)
	return l
}

// Params implements Layer.
func (l *SAGEConv) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.B} }

// Grads implements Layer.
func (l *SAGEConv) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.DW, l.DB} }

// ZeroGrad implements Layer.
func (l *SAGEConv) ZeroGrad() { zeroGradAll(l.Grads()) }

// InputDim implements GraphConv.
func (l *SAGEConv) InputDim() int { return l.InDim }

// OutputDim implements GraphConv.
func (l *SAGEConv) OutputDim() int { return l.OutDim }

// passRows implements GraphConv.
func (l *SAGEConv) passRows() []int32 { return l.agg.Ident[:l.nAll] }

// SetAgg installs the aggregation plan for subsequent passes. ai must be
// built from the same graph the passes receive (trainers rebuild the plan
// whenever the epoch graph changes).
func (l *SAGEConv) SetAgg(ai *graph.AggIndex) { l.agg = ai }

// checkForward validates the ForwardBegin contract.
func (l *SAGEConv) checkForward(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) {
	if h.Cols != l.InDim {
		panic(fmt.Sprintf("nn: SAGEConv input dim %d, want %d", h.Cols, l.InDim))
	}
	if g.N != h.Rows {
		panic(fmt.Sprintf("nn: SAGEConv graph has %d nodes, features %d rows", g.N, h.Rows))
	}
	if nOut > h.Rows || len(invDeg) < nOut {
		panic(fmt.Sprintf("nn: SAGEConv nOut=%d rows=%d invDeg=%d", nOut, h.Rows, len(invDeg)))
	}
	// The backward gathers over the plan's transposed index, so only output
	// rows may carry adjacency: rows ≥ nOut are halo rows, read but never
	// aggregated. Rows are stored in order, so this is one comparison.
	if g.Indptr[nOut] != g.Indptr[g.N] {
		panic(fmt.Sprintf("nn: SAGEConv rows [%d,%d) have %d edges; rows past nOut must carry no adjacency", nOut, g.N, g.Indptr[g.N]-g.Indptr[nOut]))
	}
	requireAgg("SAGEConv", l.agg)
}

// fusedChunks returns the edge-balanced chunk list for the fused forward,
// weighted with the per-row projection cost: one edge gather is an
// InDim-wide add, the projection is 2·InDim·OutDim FLOPs per row, so a row
// weighs ≈ 2·OutDim extra edge-equivalents on top of its degree.
func (l *SAGEConv) fusedChunks() []int32 {
	return l.agg.ChunksFor(int64(2 * l.OutDim))
}

// ForwardBegin starts a forward pass: it validates shapes, installs the
// backward caches, and returns the output matrix whose rows ForwardRows
// will fill. Chunking cannot change results — every output row is computed
// by the same per-row arithmetic whatever list it arrives in (see
// tensor.SpMMMatMulRows) and rows are independent — so any duplicate-free
// partition of [0, nOut) reproduces the full pass (Forward) bit for bit; the
// schedule property tests pin this against the textbook reference.
func (l *SAGEConv) ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix {
	l.checkForward(g, h, nOut, invDeg)
	l.g, l.nOut, l.nAll, l.invDeg, l.hIn = g, nOut, h.Rows, invDeg, h
	ensureMat(&l.z, nOut, l.InDim)
	ensureMat(&l.pre, nOut, l.OutDim)
	return ensureMat(&l.out, nOut, l.OutDim)
}

// ForwardPrep computes per-node precomputations for the listed feature
// rows. SAGE has none; GAT uses it for Wh and the attention scores.
func (l *SAGEConv) ForwardPrep(rows []int32) {}

// ForwardRows computes the output rows listed in rows, ascending (each row
// of [0, nOut) must appear exactly once across all calls of one pass). A row
// may be computed as soon as the feature rows of its neighbors are in place —
// the pipelined engine runs halo-independent rows while boundary features
// are still in flight.
func (l *SAGEConv) ForwardRows(rows []int32) {
	tensor.SpMMMatMulRows(l.pre, l.z, l.hIn, l.W, l.g.Indptr, l.g.Indices, l.invDeg, l.fusedChunks(), rows)
	for _, v32 := range rows {
		row := l.pre.Row(int(v32))
		for j, b := range l.B.Row(0) {
			row[j] += b
		}
	}
	activationRows(l.out, l.Act, l.pre, rows)
}

// BackwardBegin starts a staged backward pass: it computes the
// pre-activation gradient for every output row and zeroes the input-gradient
// accumulator. The staged schedule (BackwardBegin → BackwardHalo →
// BackwardFinish) is bit-identical whatever the halo split: a halo row of
// the input gradient receives contributions only from outputs with a halo
// neighbor (ascending, like the full gather), and an inner row only from the
// finish sweep (self copy, then ascending sources), so every accumulation
// lands on each destination row in exactly the order of the textbook
// explicit-concat backward.
func (l *SAGEConv) BackwardBegin(dOut *tensor.Matrix) {
	if dOut.Rows != l.nOut || dOut.Cols != l.OutDim {
		panic(fmt.Sprintf("nn: SAGEConv backward shape %dx%d, want %dx%d", dOut.Rows, dOut.Cols, l.nOut, l.OutDim))
	}
	dPre := ensureMat(&l.dPre, dOut.Rows, dOut.Cols)
	copy(dPre.Data, dOut.Data)
	activationGrad(l.Act, dPre, l.pre)
	dH := ensureMat(&l.dH, l.nAll, l.InDim)
	ensureMat(&l.dz, l.nOut, l.InDim) // rows filled stage by stage
	// The halo/finish split writes overwrite every dH row < nOut exactly
	// once (haloSrc ∪ freeSrc covers [0,nOut)) before any gather lands on
	// it, so only the tail rows [nOut, nAll) — halo rows, which only ever
	// receive gather accumulations — need zeroing.
	clear(dH.Data[l.nOut*l.InDim:])
}

// BackwardHalo completes the halo rows [nIn, nAll) of the input gradient so
// they can be sent while the rest of the backward pass runs. haloSrc must
// list, in ascending order, every output row with at least one neighbor
// ≥ nIn; haloSlots is the ascending list of halo rows whose gradients are
// needed. The returned matrix is the shared input-gradient accumulator: its
// rows ≥ nIn are final, rows < nIn complete only after BackwardFinish.
func (l *SAGEConv) BackwardHalo(haloSrc, haloSlots []int32, nIn int) *tensor.Matrix {
	// Fused sweep over the halo sources: each dz row and its self term
	// (overwriting its dH row, before any gather reaches it) land in one
	// pass. Every source of a halo destination has a halo neighbor, i.e. is
	// in haloSrc — its dz row was just computed — so the row gather over the
	// transposed index is complete and in ascending order.
	tensor.MatMulTransBSplitRows(l.dz, l.dH, l.dPre, l.W, haloSrc)
	tensor.SpMMTransRows(l.dH, l.dz, l.agg.IncIndptr, l.agg.IncSrc, l.invDeg, l.agg.IncChunks, haloSlots)
	return l.dH
}

// BackwardFinish accumulates DW/DB and completes the inner rows [0, nIn) of
// the input gradient. freeSrc must list, ascending, every output row not in
// BackwardHalo's haloSrc; together they cover [0, nOut) exactly once (a pass
// with no halo rows skips BackwardHalo and lists every output row here).
func (l *SAGEConv) BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix {
	dW := ensureMat(&l.dWScratch, 2*l.InDim, l.OutDim)
	tensor.MatMulTransASplit(dW, l.z, l.hIn, l.dPre)
	l.DW.Add(dW)
	for v := 0; v < l.nOut; v++ {
		tensor.AddTo(l.DB.Row(0), l.dPre.Row(v))
	}
	// The halo stage already wrote haloSrc's dz rows and self terms; this
	// sweep covers the rest, completing [0, nOut) exactly once before the
	// inner-row gather accumulates.
	tensor.MatMulTransBSplitRows(l.dz, l.dH, l.dPre, l.W, freeSrc)
	// The inner rows' neighbor term: dH.Row(u) += Σ invDeg[v]·dz_v over the
	// sources v with u ∈ N(v), in ascending source order — a parallel gather
	// over the plan's transposed index.
	tensor.SpMMTransRows(l.dH, l.dz, l.agg.IncIndptr, l.agg.IncSrc, l.invDeg, l.agg.IncChunks, l.agg.Ident[:nIn])
	return l.dH
}

// InvDegrees returns 1/degree for every node of g (0 for isolated nodes),
// the standard normalizer for exact full-graph mean aggregation.
func InvDegrees(g *graph.Graph) []float32 {
	return InvDegreesInto(make([]float32, g.N), g)
}

// InvDegreesInto is InvDegrees writing into a caller-owned slice (length
// g.N, fully overwritten), for allocation-free batch loops. Returns inv.
func InvDegreesInto(inv []float32, g *graph.Graph) []float32 {
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > 0 {
			inv[v] = 1 / float32(d)
		} else {
			inv[v] = 0
		}
	}
	return inv
}
