package nn

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// lineGraph returns the path 0-1-2-3-4.
func lineGraph() *graph.Graph {
	b := graph.NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func randGraph(rng *tensor.RNG, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestReLUForwardBackward(t *testing.T) {
	pre := tensor.NewFrom(1, 4, []float32{-1, 0, 2, -3})
	out := make([]float32, 4)
	activationRow(out, ReLUAct, pre.Data)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("relu[%d] = %v", i, out[i])
		}
	}
	d := tensor.NewFrom(1, 4, []float32{1, 1, 1, 1})
	activationGrad(ReLUAct, d, pre)
	wantG := []float32{0, 0, 1, 0}
	for i, w := range wantG {
		if d.Data[i] != w {
			t.Fatalf("relu grad[%d] = %v", i, d.Data[i])
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDropout(0.5, rng)
	x := tensor.New(50, 50)
	x.Fill(1)
	out := d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout value %v, want 0 or 2", v)
		}
	}
	if zeros < 1000 || twos < 1000 {
		t.Fatalf("dropout counts off: %d zeros, %d twos", zeros, twos)
	}
	// Eval mode is identity (same backing object allowed).
	ev := d.Forward(x, false)
	if !ev.Equal(x, 0) {
		t.Fatal("eval dropout must be identity")
	}
	if g := d.Backward(x); !g.Equal(x, 0) {
		t.Fatal("eval dropout backward must be identity")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewDropout(0.3, rng)
	x := tensor.New(10, 10)
	x.Fill(1)
	out := d.Forward(x, true)
	g := tensor.New(10, 10)
	g.Fill(1)
	back := d.Backward(g)
	// Gradient must be nonzero exactly where output is nonzero.
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.NewFrom(2, 2, []float32{0, 0, 100, 0})
	labels := []int32{0, 0}
	mask := []bool{true, true}
	loss, grad := SoftmaxCrossEntropy(logits, labels, mask)
	// Row 0: uniform -> ln 2; row 1: confident correct -> ~0.
	if math.Abs(loss-math.Ln2/2) > 1e-4 {
		t.Fatalf("loss = %v, want %v", loss, math.Ln2/2)
	}
	// Row gradient sums to 0.
	if s := float64(grad.Row(0)[0] + grad.Row(0)[1]); math.Abs(s) > 1e-6 {
		t.Fatalf("grad row sum %v", s)
	}
}

func TestSoftmaxCrossEntropyMaskedRowsZero(t *testing.T) {
	logits := tensor.NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	_, grad := SoftmaxCrossEntropy(logits, []int32{0, 1}, []bool{false, true})
	for _, v := range grad.Row(0) {
		if v != 0 {
			t.Fatal("masked row must have zero gradient")
		}
	}
}

func TestSoftmaxCrossEntropyGradFiniteDiff(t *testing.T) {
	rng := tensor.NewRNG(3)
	logits := tensor.New(4, 5)
	tensor.GaussianInit(logits, 1, rng)
	labels := []int32{1, 4, 0, 2}
	mask := []bool{true, false, true, true}
	_, grad := SoftmaxCrossEntropy(logits, labels, mask)
	const eps = 1e-3
	for i := 0; i < len(logits.Data); i += 3 {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels, mask)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels, mask)
		logits.Data[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("elem %d: fd %v vs analytic %v", i, fd, grad.Data[i])
		}
	}
}

func TestSigmoidBCEGradFiniteDiff(t *testing.T) {
	rng := tensor.NewRNG(4)
	logits := tensor.New(3, 4)
	tensor.GaussianInit(logits, 1, rng)
	targets := tensor.New(3, 4)
	for i := range targets.Data {
		if rng.Float32() < 0.4 {
			targets.Data[i] = 1
		}
	}
	mask := []bool{true, true, false}
	_, grad := SigmoidBCE(logits, targets, mask)
	const eps = 1e-3
	for i := 0; i < len(logits.Data); i += 2 {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SigmoidBCE(logits, targets, mask)
		logits.Data[i] = orig - eps
		lm, _ := SigmoidBCE(logits, targets, mask)
		logits.Data[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("elem %d: fd %v vs analytic %v", i, fd, grad.Data[i])
		}
	}
}

func TestLossEmptyMask(t *testing.T) {
	logits := tensor.New(2, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 0}, []bool{false, false})
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("empty mask must give zero loss and grad")
	}
	loss, grad = SigmoidBCE(logits, tensor.New(2, 2), []bool{false, false})
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("empty mask BCE must give zero loss and grad")
	}
}

// sageLoss runs a 1-layer SAGE + CE loss; used for finite-difference checks.
func sageLoss(l *SAGEConv, g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32, labels []int32, mask []bool) float64 {
	out := Forward(l, g, h, nOut, invDeg)
	loss, _ := SoftmaxCrossEntropy(out, labels, mask)
	return loss
}

func TestSAGEConvGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	nOut := 6 // rows 6,7 act as halo rows
	g := dropHaloAdjacency(randGraph(rng, 8, 16), nOut)
	h := tensor.New(8, 3)
	tensor.GaussianInit(h, 1, rng)
	l := NewSAGEConv(3, 4, ReLUAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	invDeg := InvDegrees(g)
	labels := []int32{0, 1, 2, 3, 0, 1}
	mask := []bool{true, true, true, false, true, true}

	out := Forward(l, g, h, nOut, invDeg)
	_, dOut := SoftmaxCrossEntropy(out, labels, mask)
	l.ZeroGrad()
	dH := Backward(l, dOut)

	const eps = 1e-2
	check := func(name string, param *tensor.Matrix, grad *tensor.Matrix, stride int) {
		for i := 0; i < len(param.Data); i += stride {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			lp := sageLoss(l, g, h, nOut, invDeg, labels, mask)
			param.Data[i] = orig - eps
			lm := sageLoss(l, g, h, nOut, invDeg, labels, mask)
			param.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-float64(grad.Data[i])) > 2e-2*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: fd %v vs analytic %v", name, i, fd, grad.Data[i])
			}
		}
	}
	check("W", l.W, l.DW, 3)
	check("B", l.B, l.DB, 1)
	check("H", h, dH, 2)
}

func TestSAGEConvHaloRowsGetGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	// Node 0's only neighbor is halo node 2 -> halo must receive gradient.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	g := dropHaloAdjacency(b.Build(), 2)
	h := tensor.New(3, 2)
	tensor.GaussianInit(h, 1, rng)
	l := NewSAGEConv(2, 2, NoAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	out := Forward(l, g, h, 2, InvDegrees(g))
	if out.Rows != 2 {
		t.Fatalf("out rows %d", out.Rows)
	}
	dOut := tensor.New(2, 2)
	dOut.Fill(1)
	l.ZeroGrad()
	dH := Backward(l, dOut)
	if dH.Rows != 3 {
		t.Fatalf("dH rows %d, want 3 (including halo)", dH.Rows)
	}
	var haloNorm float32
	for _, v := range dH.Row(2) {
		haloNorm += v * v
	}
	if haloNorm == 0 {
		t.Fatal("halo row received no gradient")
	}
}

func TestSAGEConvMeanAggregation(t *testing.T) {
	// Identity-ish check: with W = [I;0] (z passthrough), output = mean of
	// neighbors.
	rng := tensor.NewRNG(7)
	g := lineGraph()
	h := tensor.New(5, 2)
	for v := 0; v < 5; v++ {
		h.Set(v, 0, float32(v))
		h.Set(v, 1, 1)
	}
	l := NewSAGEConv(2, 2, NoAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	l.W.Zero()
	l.B.Zero()
	l.W.Set(0, 0, 1) // z[0] -> out[0]
	l.W.Set(1, 1, 1) // z[1] -> out[1]
	out := Forward(l, g, h, 5, InvDegrees(g))
	// Node 2 neighbors {1,3}: mean = (1+3)/2 = 2 in dim0, 1 in dim1.
	if math.Abs(float64(out.At(2, 0)-2)) > 1e-6 || math.Abs(float64(out.At(2, 1)-1)) > 1e-6 {
		t.Fatalf("node 2 aggregation = (%v,%v), want (2,1)", out.At(2, 0), out.At(2, 1))
	}
	// Node 0 neighbors {1}: mean = 1.
	if math.Abs(float64(out.At(0, 0)-1)) > 1e-6 {
		t.Fatalf("node 0 aggregation = %v, want 1", out.At(0, 0))
	}
}

func TestSAGEConvIsolatedNodeZeroAggregate(t *testing.T) {
	rng := tensor.NewRNG(8)
	g := graph.NewBuilder(2).Build() // no edges
	h := tensor.New(2, 2)
	h.Fill(3)
	l := NewSAGEConv(2, 2, NoAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	l.W.Zero()
	l.W.Set(0, 0, 1)
	out := Forward(l, g, h, 2, InvDegrees(g))
	if out.At(0, 0) != 0 {
		t.Fatalf("isolated node aggregate = %v, want 0", out.At(0, 0))
	}
}

func gatLoss(l *GATConv, g *graph.Graph, h *tensor.Matrix, nOut int, labels []int32, mask []bool) float64 {
	out := Forward(l, g, h, nOut, nil)
	loss, _ := SoftmaxCrossEntropy(out, labels, mask)
	return loss
}

func TestGATConvGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := randGraph(rng, 7, 14)
	h := tensor.New(7, 3)
	tensor.GaussianInit(h, 1, rng)
	l := NewGATConv(3, 4, ReLUAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	nOut := 5
	labels := []int32{0, 1, 2, 3, 0}
	mask := []bool{true, true, false, true, true}

	out := Forward(l, g, h, nOut, nil)
	_, dOut := SoftmaxCrossEntropy(out, labels, mask)
	l.ZeroGrad()
	dH := Backward(l, dOut)

	const eps = 1e-2
	check := func(name string, param, grad *tensor.Matrix, stride int) {
		for i := 0; i < len(param.Data); i += stride {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			lp := gatLoss(l, g, h, nOut, labels, mask)
			param.Data[i] = orig - eps
			lm := gatLoss(l, g, h, nOut, labels, mask)
			param.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-float64(grad.Data[i])) > 3e-2*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: fd %v vs analytic %v", name, i, fd, grad.Data[i])
			}
		}
	}
	check("W", l.W, l.DW, 2)
	check("A1", l.A1, l.DA1, 1)
	check("A2", l.A2, l.DA2, 1)
	check("H", h, dH, 2)
}

func TestGATAttentionSumsToOne(t *testing.T) {
	rng := tensor.NewRNG(10)
	g := randGraph(rng, 10, 30)
	h := tensor.New(10, 4)
	tensor.GaussianInit(h, 1, rng)
	l := NewGATConv(4, 4, NoAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	Forward(l, g, h, 10, nil)
	for v, alpha := range l.alpha {
		var s float64
		for _, a := range alpha {
			if a < 0 {
				t.Fatalf("negative attention at %d", v)
			}
			s += float64(a)
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("attention of %d sums to %v", v, s)
		}
	}
}

func TestFlattenUnflattenGrads(t *testing.T) {
	rng := tensor.NewRNG(11)
	layers := []Layer{
		NewSAGEConv(3, 4, ReLUAct, rng),
		NewSAGEConv(4, 2, NoAct, rng),
	}
	for _, l := range layers {
		for _, g := range l.Grads() {
			tensor.GaussianInit(g, 1, rng)
		}
	}
	flat := FlattenGrads(layers, nil)
	if len(flat) != ParamCount(layers) {
		t.Fatalf("flat len %d, want %d", len(flat), ParamCount(layers))
	}
	// Perturb and restore.
	saved := make([]float32, len(flat))
	copy(saved, flat)
	for _, l := range layers {
		l.ZeroGrad()
	}
	UnflattenGrads(layers, saved)
	flat2 := FlattenGrads(layers, nil)
	for i := range flat2 {
		if flat2[i] != saved[i] {
			t.Fatal("unflatten did not restore gradients")
		}
	}
}

func TestInvDegrees(t *testing.T) {
	g := lineGraph()
	inv := InvDegrees(g)
	if inv[0] != 1 || inv[1] != 0.5 {
		t.Fatalf("inv degrees %v", inv[:2])
	}
	iso := graph.NewBuilder(1).Build()
	if InvDegrees(iso)[0] != 0 {
		t.Fatal("isolated node inverse degree must be 0")
	}
}
