package nn

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// sageRef is the textbook GraphSAGE layer (Eq. 1–2) the fused engine in
// SAGEConv must reproduce bit for bit: it materializes the nOut × 2·InDim
// concat [z|h], projects it with a plain MatMul, and scatters the backward
// neighbor term serially, each source in ascending order. It shares the
// layer's W/B/Act and accumulates its own parameter gradients.
type sageRef struct {
	l      *SAGEConv
	g      *graph.Graph
	invDeg []float32
	nOut   int
	nAll   int

	concat, pre *tensor.Matrix
	DW, DB      *tensor.Matrix
}

func newSAGERef(l *SAGEConv) *sageRef {
	return &sageRef{l: l, DW: tensor.New(2*l.InDim, l.OutDim), DB: tensor.New(1, l.OutDim)}
}

func (r *sageRef) Forward(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix {
	in := r.l.InDim
	r.g, r.invDeg, r.nOut, r.nAll = g, invDeg, nOut, h.Rows
	r.concat = tensor.New(nOut, 2*in)
	tensor.SpMM(r.concat, h, g.Indptr, g.Indices, invDeg, nil)
	for v := 0; v < nOut; v++ {
		copy(r.concat.Row(v)[in:], h.Row(v))
	}
	r.pre = tensor.New(nOut, r.l.OutDim)
	tensor.MatMul(r.pre, r.concat, r.l.W)
	for v := 0; v < nOut; v++ {
		tensor.AddTo(r.pre.Row(v), r.l.B.Row(0))
	}
	return applyActivation(r.l.Act, r.pre)
}

func (r *sageRef) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	in := r.l.InDim
	dPre := dOut.Clone()
	activationGrad(r.l.Act, dPre, r.pre)
	dW := tensor.New(2*in, r.l.OutDim)
	tensor.MatMulTransA(dW, r.concat, dPre)
	r.DW.Add(dW)
	for v := 0; v < r.nOut; v++ {
		tensor.AddTo(r.DB.Row(0), dPre.Row(v))
	}
	dConcat := tensor.New(r.nOut, 2*in)
	tensor.MatMulTransB(dConcat, dPre, r.l.W)
	dH := tensor.New(r.nAll, in)
	for v := 0; v < r.nOut; v++ {
		copy(dH.Row(v), dConcat.Row(v)[in:])
	}
	for v := 0; v < r.nOut; v++ {
		dz := dConcat.Row(v)[:in]
		for _, u := range r.g.Neighbors(int32(v)) {
			tensor.Axpy(dH.Row(int(u)), dz, r.invDeg[v])
		}
	}
	return dH
}

// dropHaloAdjacency returns g with the adjacency of rows ≥ nOut removed: the
// partition-local shape the layers run on, where halo rows are read as
// neighbors but never aggregate.
func dropHaloAdjacency(g *graph.Graph, nOut int) *graph.Graph {
	indptr := append([]int64(nil), g.Indptr...)
	for v := nOut + 1; v <= g.N; v++ {
		indptr[v] = indptr[nOut]
	}
	return &graph.Graph{N: g.N, Indptr: indptr, Indices: g.Indices[:indptr[nOut]]}
}

// gatSerialForward is the GAT reference forward: the per-node attention
// sweep in ascending node order on the calling goroutine, which the
// chunk-parallel Forward must reproduce bit for bit.
func gatSerialForward(l *GATConv, g *graph.Graph, h *tensor.Matrix, nOut int) *tensor.Matrix {
	out := l.ForwardBegin(g, h, nOut)
	l.ForwardPrep(0, h.Rows)
	for v := 0; v < nOut; v++ {
		l.forwardNode(v)
	}
	return out
}

// TestLayerPassWithoutPlanPanics: a pass with no aggregation plan installed
// must fail with a message naming SetAgg, not dereference a nil plan
// somewhere inside the kernels.
func TestLayerPassWithoutPlanPanics(t *testing.T) {
	rng := tensor.NewRNG(3)
	g := lineGraph()
	h := randMat(rng, g.N, 3)
	sage := NewSAGEConv(3, 2, ReLUAct, rng)
	gat := NewGATConv(3, 2, ReLUAct, rng)
	for name, pass := range map[string]func(){
		"SAGEConv.Forward":      func() { sage.Forward(g, h, g.N, InvDegrees(g)) },
		"SAGEConv.ForwardBegin": func() { sage.ForwardBegin(g, h, g.N, InvDegrees(g)) },
		"GATConv.Forward":       func() { gat.Forward(g, h, g.N) },
		"GATConv.ForwardBegin":  func() { gat.ForwardBegin(g, h, g.N) },
	} {
		msg := panicMessage(pass)
		if msg == "" {
			t.Errorf("%s: no panic without a plan", name)
		} else if !strings.Contains(msg, "SetAgg") {
			t.Errorf("%s: panic %q does not name SetAgg", name, msg)
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	f()
	return ""
}
