package nn

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The sparse-engine contract: the fused, plan-driven layer passes must
// reproduce the textbook formulation bit for bit — the engine only changes
// how the edge walks are blocked and parallelized. These tests drive every
// pass shape (one-shot, chunked forward, staged backward) on the engine and
// compare bitwise against the references in reference_test.go, on the same
// partition-shaped graphs as the chunked-pass tests.

// aggCase reuses the chunkedCases shapes plus denser/high-degree ones where
// the four-edge blocking always has full blocks and tails.
var aggCases = []chunkedCase{
	{"odd-prime", 13, 7, 5, 11, 3, 0.4},
	{"all-halo-dep", 17, 5, 4, 7, 5, 1.0},
	{"no-halo", 19, 0, 4, 5, 2, 0},
	{"dense", 29, 13, 17, 9, 6, 0.35},
	{"wide", 31, 11, 6, 23, 13, 0.3},
}

// TestSAGEAggEngineMatchesConcatReference: one-shot, chunked and staged
// passes on the SpMM engine must reproduce the explicit-concat reference bit
// for bit.
func TestSAGEAggEngineMatchesConcatReference(t *testing.T) {
	for _, tc := range aggCases {
		rng := tensor.NewRNG(301)
		g := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
		free, dep, slots := splitHalo(g, tc.nIn)
		h := randMat(rng, g.N, tc.inDim)
		invDeg := make([]float32, tc.nIn)
		for v := range invDeg {
			if d := g.Degree(int32(v)); d > 0 {
				invDeg[v] = 1 / float32(d)
			}
		}
		dOut := randMat(rng, tc.nIn, tc.outDim)

		eng := NewSAGEConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(5))
		eng.SetAgg(graph.NewAggIndex(g))
		ref := newSAGERef(eng)

		wantOut := ref.Forward(g, h, tc.nIn, invDeg)
		wantDH := ref.Backward(dOut)
		gotOut := eng.Forward(g, h, tc.nIn, invDeg)
		gotDH := eng.Backward(dOut)
		sameBits(t, tc.name+"/forward", gotOut.Data, wantOut.Data)
		sameBits(t, tc.name+"/backward", gotDH.Data, wantDH.Data)
		sameBits(t, tc.name+"/DW", eng.DW.Data, ref.DW.Data)
		sameBits(t, tc.name+"/DB", eng.DB.Data, ref.DB.Data)

		// Staged passes with the engine: chunked forward over the halo
		// split, staged backward — still bit-identical to the reference.
		chk := NewSAGEConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(5))
		chk.SetAgg(graph.NewAggIndex(g))
		got := chk.ForwardBegin(g, h, tc.nIn, invDeg)
		chk.ForwardPrep(0, tc.nIn)
		chk.ForwardRows(free)
		chk.ForwardPrep(tc.nIn, g.N)
		chk.ForwardRows(dep)
		sameBits(t, tc.name+"/chunked-forward", got.Data, wantOut.Data)
		chk.BackwardBegin(dOut)
		gotStaged := chk.BackwardHalo(dep, slots, tc.nIn)
		chk.BackwardFinish(free, tc.nIn)
		inner := make([]int32, tc.nIn)
		for v := range inner {
			inner[v] = int32(v)
		}
		sameRowsBits(t, tc.name+"/staged-inner", gotStaged, wantDH, inner)
		sameRowsBits(t, tc.name+"/staged-halo", gotStaged, wantDH, slots)
		sameBits(t, tc.name+"/staged-DW", chk.DW.Data, ref.DW.Data)
	}
}

// TestGATAggEngineMatchesSerialReference: the chunk-parallel attention
// sweep must reproduce the serial sweep bit for bit.
func TestGATAggEngineMatchesSerialReference(t *testing.T) {
	for _, tc := range aggCases {
		rng := tensor.NewRNG(302)
		g := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
		h := randMat(rng, g.N, tc.inDim)
		dOut := randMat(rng, tc.nIn, tc.outDim)

		ref := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		ref.SetAgg(graph.NewAggIndex(g))
		eng := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		eng.SetAgg(graph.NewAggIndex(g))

		wantOut := gatSerialForward(ref, g, h, tc.nIn)
		wantDH := ref.Backward(dOut)
		gotOut := eng.Forward(g, h, tc.nIn)
		gotDH := eng.Backward(dOut)
		sameBits(t, tc.name+"/forward", gotOut.Data, wantOut.Data)
		sameBits(t, tc.name+"/backward", gotDH.Data, wantDH.Data)
		sameBits(t, tc.name+"/DW", eng.DW.Data, ref.DW.Data)
		sameBits(t, tc.name+"/DA1", eng.DA1.Data, ref.DA1.Data)
		sameBits(t, tc.name+"/DA2", eng.DA2.Data, ref.DA2.Data)
	}
}

// isolatedGraph builds a local graph where nodes isoA (inner) and the last
// halo row are completely isolated, the other inner rows draw deg neighbors.
func isolatedGraph(rng *tensor.RNG, nIn, nBd, deg int, isolated map[int]bool) *graph.Graph {
	n := nIn + nBd
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < nIn; v++ {
		indptr[v] = int64(len(indices))
		if isolated[v] {
			continue
		}
		for e := 0; e < deg; e++ {
			u := rng.Intn(n - 1)
			if isolated[u] || u == v {
				u = (v + 1) % nIn // deterministic non-isolated fallback
				if isolated[u] {
					continue
				}
			}
			indices = append(indices, int32(u))
		}
	}
	for v := nIn; v <= n; v++ {
		indptr[v] = int64(len(indices))
	}
	return &graph.Graph{N: n, Indptr: indptr, Indices: indices}
}

// TestSAGEZeroDegreeNodesFullPass drives zero-degree and isolated nodes
// through the full forward+backward: the aggregate half must be exactly
// zero, the output reduce to σ(W·[0|h_v]+b), parameter gradients must pass
// a finite-difference check, and nothing may go NaN.
func TestSAGEZeroDegreeNodesFullPass(t *testing.T) {
	const nIn, nBd, deg, inDim, outDim = 11, 4, 3, 5, 3
	iso := map[int]bool{2: true, 7: true}
	rng := tensor.NewRNG(777)
	g := isolatedGraph(rng, nIn, nBd, deg, iso)
	h := randMat(rng, g.N, inDim)
	invDeg := make([]float32, nIn)
	for v := range invDeg {
		if d := g.Degree(int32(v)); d > 0 {
			invDeg[v] = 1 / float32(d)
		}
	}
	if invDeg[2] != 0 || invDeg[7] != 0 {
		t.Fatal("test graph: nodes 2 and 7 must be isolated")
	}

	labels := make([]int32, nIn)
	mask := make([]bool, nIn)
	for v := 0; v < nIn; v++ {
		labels[v] = int32(v % outDim)
		mask[v] = true
	}

	l := NewSAGEConv(inDim, outDim, ReLUAct, tensor.NewRNG(9))
	l.SetAgg(graph.NewAggIndex(g))
	out := l.Forward(g, h, nIn, invDeg)
	// Isolated node: aggregate half is zero, so out = σ(W₂·h_v + b)
	// where W₂ is the lower half of W.
	for _, v := range []int{2, 7} {
		for j := 0; j < outDim; j++ {
			var s float32
			for c := 0; c < inDim; c++ {
				s += h.At(v, c) * l.W.At(inDim+c, j)
			}
			s += l.B.At(0, j)
			if s < 0 {
				s = 0
			}
			if math.Abs(float64(out.At(v, j)-s)) > 1e-5 {
				t.Fatalf("isolated node %d col %d: out %v, want self-only %v", v, j, out.At(v, j), s)
			}
		}
	}
	for _, x := range out.Data {
		if math.IsNaN(float64(x)) {
			t.Fatalf("NaN in forward output")
		}
	}

	// Finite-difference gradient check of W and the input through the
	// full masked loss, isolated nodes included in the mask.
	loss := func() float64 {
		o := l.Forward(g, h, nIn, invDeg)
		ls, _ := SoftmaxCrossEntropy(o, labels, mask)
		return ls
	}
	l.ZeroGrad()
	out = l.Forward(g, h, nIn, invDeg)
	ls, dOut := SoftmaxCrossEntropy(out, labels, mask)
	_ = ls
	dH := l.Backward(dOut)
	const eps = 1e-3
	checkFD := func(name string, param []float32, grad []float32, idx int) {
		t.Helper()
		old := param[idx]
		param[idx] = old + eps
		up := loss()
		param[idx] = old - eps
		down := loss()
		param[idx] = old
		fd := (up - down) / (2 * eps)
		if diff := math.Abs(fd - float64(grad[idx])); diff > 2e-3*(1+math.Abs(fd)) {
			t.Fatalf("%s[%d]: analytic %v vs fd %v", name, idx, grad[idx], fd)
		}
	}
	// Probe the self-half rows of W feeding the isolated nodes, a few
	// aggregate-half entries, the bias, and the isolated nodes' input
	// rows (whose gradient flows only through the self term).
	for _, idx := range []int{0, inDim*outDim + 1, (2*inDim - 1) * outDim} {
		checkFD("W", l.W.Data, l.DW.Data, idx)
	}
	checkFD("B", l.B.Data, l.DB.Data, 1)
	checkFD("h", h.Data, dH.Data, 2*inDim+1) // input row of isolated node 2
	for _, x := range dH.Data {
		if math.IsNaN(float64(x)) {
			t.Fatalf("NaN in input gradient")
		}
	}
}

// TestGATZeroDegreeNodesFullPass: isolated nodes attend only to themselves
// (α = 1), so out = σ(W·h_v), and the full forward+backward stays finite
// and passes a finite-difference probe.
func TestGATZeroDegreeNodesFullPass(t *testing.T) {
	const nIn, nBd, deg, inDim, outDim = 9, 3, 3, 4, 3
	iso := map[int]bool{0: true, 5: true}
	rng := tensor.NewRNG(778)
	g := isolatedGraph(rng, nIn, nBd, deg, iso)
	h := randMat(rng, g.N, inDim)
	labels := make([]int32, nIn)
	mask := make([]bool, nIn)
	for v := 0; v < nIn; v++ {
		labels[v] = int32(v % outDim)
		mask[v] = true
	}

	l := NewGATConv(inDim, outDim, ReLUAct, tensor.NewRNG(11))
	l.SetAgg(graph.NewAggIndex(g))
	out := l.Forward(g, h, nIn)
	for _, v := range []int{0, 5} {
		for j := 0; j < outDim; j++ {
			var s float32
			for c := 0; c < inDim; c++ {
				s += h.At(v, c) * l.W.At(c, j)
			}
			if s < 0 {
				s = 0
			}
			if math.Abs(float64(out.At(v, j)-s)) > 1e-5 {
				t.Fatalf("isolated node %d col %d: out %v, want self-attention %v", v, j, out.At(v, j), s)
			}
		}
	}

	loss := func() float64 {
		o := l.Forward(g, h, nIn)
		ls, _ := SoftmaxCrossEntropy(o, labels, mask)
		return ls
	}
	l.ZeroGrad()
	out = l.Forward(g, h, nIn)
	_, dOut := SoftmaxCrossEntropy(out, labels, mask)
	dH := l.Backward(dOut)
	const eps = 1e-3
	for _, probe := range []struct {
		name  string
		param []float32
		grad  []float32
		idx   int
	}{
		{"W", l.W.Data, l.DW.Data, 1},
		{"A1", l.A1.Data, l.DA1.Data, 0},
		{"A2", l.A2.Data, l.DA2.Data, 2},
		{"h", h.Data, dH.Data, 0}, // input row of isolated node 0
	} {
		old := probe.param[probe.idx]
		probe.param[probe.idx] = old + eps
		up := loss()
		probe.param[probe.idx] = old - eps
		down := loss()
		probe.param[probe.idx] = old
		fd := (up - down) / (2 * eps)
		if diff := math.Abs(fd - float64(probe.grad[probe.idx])); diff > 2e-3*(1+math.Abs(fd)) {
			t.Fatalf("%s[%d]: analytic %v vs fd %v", probe.name, probe.idx, probe.grad[probe.idx], fd)
		}
	}
	for _, x := range dH.Data {
		if math.IsNaN(float64(x)) {
			t.Fatalf("NaN in input gradient")
		}
	}
}
