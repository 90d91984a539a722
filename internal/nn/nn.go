// Package nn implements the neural-network layers used by the paper's
// models — GraphSAGE convolution with a mean aggregator (Eq. 1–2) and a GAT
// attention layer — plus dropout, activations and the two loss functions
// (softmax cross-entropy for single-label datasets, sigmoid BCE for the
// multi-label Yelp analogue). All backward passes are hand-derived and
// verified against finite differences in the tests.
//
// Layers operate on a local node space: rows [0, nOut) of the input feature
// matrix are the nodes whose outputs are produced (a partition's inner
// nodes), rows [nOut, H.Rows) are halo rows (boundary-node features received
// from other partitions). The adjacency used for aggregation is over this
// local space. In single-process full-graph training nOut == H.Rows.
package nn

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Activation selects the nonlinearity applied by a layer.
type Activation int

const (
	// NoAct applies no nonlinearity (used before a loss that applies its own).
	NoAct Activation = iota
	// ReLUAct applies max(0, x).
	ReLUAct
)

// ensureMat returns a rows×cols matrix stored at *buf, reusing the existing
// storage when its capacity suffices. Contents are UNDEFINED; callers must
// fully overwrite or explicitly zero. This is how layers keep per-call
// scratch out of the allocator: shapes are stable across epochs, so after
// warm-up every call reuses the same backing arrays.
func ensureMat(buf **tensor.Matrix, rows, cols int) *tensor.Matrix {
	m := *buf
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		m = tensor.New(rows, cols)
		*buf = m
		return m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// requireAgg panics with a pointed message when a layer pass starts with no
// aggregation plan installed, instead of dereferencing a nil plan mid-pass.
func requireAgg(layer string, ai *graph.AggIndex) {
	if ai == nil {
		panic(fmt.Sprintf("nn: %s pass with no aggregation plan; install one with SetAgg(graph.NewAggIndex(g))", layer))
	}
}

// ensureF32 returns a length-n float32 slice stored at *buf with undefined
// contents, reusing capacity when possible.
func ensureF32(buf *[]float32, n int) []float32 {
	s := *buf
	if cap(s) < n {
		s = make([]float32, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// activationRow writes act(pre) into one row slice.
func activationRow(dst []float32, a Activation, pre []float32) {
	switch a {
	case NoAct:
		copy(dst, pre)
	case ReLUAct:
		for j, x := range pre {
			if x < 0 {
				dst[j] = 0
			} else {
				dst[j] = x
			}
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// activationRows writes act(pre) into dst for the given rows only. The
// activations are elementwise, so any row list produces the bits of one
// whole-matrix pass.
func activationRows(dst *tensor.Matrix, a Activation, pre *tensor.Matrix, rows []int32) {
	for _, v := range rows {
		activationRow(dst.Row(int(v)), a, pre.Row(int(v)))
	}
}

// activationGrad multiplies dOut in place by act'(pre).
func activationGrad(a Activation, dOut, pre *tensor.Matrix) {
	switch a {
	case NoAct:
	case ReLUAct:
		for i, v := range pre.Data {
			if v <= 0 {
				dOut.Data[i] = 0
			}
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// Layer is the common interface of trainable graph layers.
type Layer interface {
	// Params returns the trainable parameter matrices (shared storage).
	Params() []*tensor.Matrix
	// Grads returns the gradient matrices aligned with Params.
	Grads() []*tensor.Matrix
	// ZeroGrad clears all gradients.
	ZeroGrad()
}

// GraphConv is the pass API of the graph layers (SAGEConv, GATConv). A pass
// runs in stages over ascending, duplicate-free row lists, so the pipelined
// epoch engine can overlap halo exchange with halo-independent compute:
//
//   - ForwardBegin → ForwardPrep/ForwardRows: rows whose aggregation reads no
//     halo slot can run while boundary features are in flight; the remaining
//     rows run on arrival. Any duplicate-free row partition is bit-identical.
//   - BackwardBegin → BackwardHalo → BackwardFinish: halo-row input gradients
//     complete first (so they can be sent), then parameter gradients and the
//     inner rows while the peer gradients are in flight. Every halo split is
//     bit-identical.
//
// A full pass is the no-halo case of the same stages: Forward and Backward
// run it. Contiguous row ranges are sub-slices of the plan's identity list
// (graph.AggIndex.Ident).
type GraphConv interface {
	Layer

	// SetAgg installs the aggregation plan (graph.AggIndex: the transposed
	// index, edge-balanced chunk boundaries and the identity row list) the
	// layer's passes run over. The plan must be built from the same graph
	// the passes receive; trainers rebuild it whenever the graph changes.
	// Every pass needs one: a pass with no plan installed panics.
	SetAgg(ai *graph.AggIndex)

	// ForwardBegin prepares a pass producing outputs for rows [0, nOut) of
	// h over g (whose node space matches h's rows), and returns the output
	// matrix the ForwardRows calls will fill. invDeg[v] is the normalizer
	// of node v's neighbor sum (unused by attention).
	ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix
	// ForwardPrep runs per-node precomputations for the listed feature rows
	// (a no-op for SAGE; Wh and attention scores for GAT); each input row
	// exactly once per pass, before any output row that reads it.
	ForwardPrep(rows []int32)
	// ForwardRows computes the listed output rows; each row of [0, nOut)
	// must be covered exactly once per pass.
	ForwardRows(rows []int32)

	// BackwardBegin computes the pre-activation gradients for dOut and
	// resets the pass accumulators.
	BackwardBegin(dOut *tensor.Matrix)
	// BackwardHalo completes the halo rows of the input gradient: haloSrc
	// lists every output row with a neighbor ≥ nIn, haloSlots the halo rows
	// whose gradients are needed. Rows < nIn of the returned matrix are
	// valid only after BackwardFinish.
	BackwardHalo(haloSrc, haloSlots []int32, nIn int) *tensor.Matrix
	// BackwardFinish accumulates parameter gradients and completes rows
	// [0, nIn); freeSrc lists the output rows not in haloSrc.
	BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix

	InputDim() int
	OutputDim() int

	// passRows returns the identity list over the current pass's input
	// rows [0, h.Rows).
	passRows() []int32
}

// Forward runs l's full forward pass: outputs for the first nOut rows of h,
// every input row prepped first. The returned matrix is owned by the layer
// and valid until its next pass.
func Forward(l GraphConv, g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix {
	out := l.ForwardBegin(g, h, nOut, invDeg)
	all := l.passRows()
	l.ForwardPrep(all)
	l.ForwardRows(all[:nOut])
	return out
}

// Backward consumes dOut (nOut × OutputDim) for l's last Forward,
// accumulates the parameter gradients, and returns the gradient with
// respect to the full input matrix, halo rows included. The halo stage runs
// only when the pass has halo rows (rows ≥ nOut); otherwise the finish
// stage covers every output row. The returned matrix is owned by the layer
// and valid until its next pass.
func Backward(l GraphConv, dOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardBegin(dOut)
	all, nOut := l.passRows(), dOut.Rows
	if len(all) == nOut {
		return l.BackwardFinish(all, nOut)
	}
	l.BackwardHalo(all[:nOut], all[nOut:], nOut)
	return l.BackwardFinish(nil, nOut)
}

// zeroGradAll clears each gradient matrix.
func zeroGradAll(gs []*tensor.Matrix) {
	for _, g := range gs {
		g.Zero()
	}
}

// ParamCount returns the total number of scalar parameters in layers.
func ParamCount(layers []Layer) int {
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += len(p.Data)
		}
	}
	return n
}

// FlattenGrads copies all layer gradients into one contiguous slice, in a
// deterministic order, for AllReduce.
func FlattenGrads(layers []Layer, out []float32) []float32 {
	out = out[:0]
	for _, l := range layers {
		out = appendMats(out, l.Grads())
	}
	return out
}

// FlattenMats copies the elements of each matrix into out (reset to length
// zero first) and returns it. With a pre-cached matrix slice and sufficient
// capacity it allocates nothing, unlike FlattenGrads whose per-layer Grads()
// calls build fresh slices.
func FlattenMats(mats []*tensor.Matrix, out []float32) []float32 {
	return appendMats(out[:0], mats)
}

func appendMats(out []float32, mats []*tensor.Matrix) []float32 {
	for _, g := range mats {
		out = append(out, g.Data...)
	}
	return out
}

// UnflattenGrads copies flat back into the layer gradient matrices,
// inverting FlattenGrads.
func UnflattenGrads(layers []Layer, flat []float32) {
	i := 0
	for _, l := range layers {
		i = consumeMats(l.Grads(), flat, i)
	}
	if i != len(flat) {
		panic(fmt.Sprintf("nn: UnflattenGrads consumed %d of %d", i, len(flat)))
	}
}

// UnflattenMats copies flat back into the matrices, inverting FlattenMats.
func UnflattenMats(mats []*tensor.Matrix, flat []float32) {
	if i := consumeMats(mats, flat, 0); i != len(flat) {
		panic(fmt.Sprintf("nn: UnflattenMats consumed %d of %d", i, len(flat)))
	}
}

func consumeMats(mats []*tensor.Matrix, flat []float32, i int) int {
	for _, g := range mats {
		copy(g.Data, flat[i:i+len(g.Data)])
		i += len(g.Data)
	}
	return i
}

// Dropout zeroes each element with probability Rate during training and
// scales survivors by 1/(1-Rate) (inverted dropout).
//
// Both passes can run in row chunks (ForwardBegin/ForwardRows and
// BackwardBegin/BackwardRows) so the pipelined epoch engine can drop a
// partition's inner rows while halo rows are still in flight. The mask RNG
// stream is consumed in element order, so forward chunks must be ascending,
// disjoint ranges covering [0, Rows) — then chunking draws exactly the masks
// a single full pass would, and results are bit-identical.
type Dropout struct {
	Rate float32
	rng  *tensor.RNG
	mask *tensor.Matrix // nil when the last Forward was identity

	fwdSrc *tensor.Matrix // input of the in-progress chunked forward
	bwdSrc *tensor.Matrix // dOut of the in-progress chunked backward

	maskBuf, outBuf, dxBuf *tensor.Matrix
}

// NewDropout returns a dropout layer with its own RNG stream.
func NewDropout(rate float32, rng *tensor.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng.Split()}
}

// RNGState returns the mask RNG's stream position. A resumed run must
// continue drawing masks exactly where the interrupted one stopped, so
// checkpoints persist this alongside the weights.
func (d *Dropout) RNGState() uint64 { return d.rng.State() }

// SetRNGState repositions the mask RNG stream (checkpoint restore).
func (d *Dropout) SetRNGState(s uint64) { d.rng.SetState(s) }

// Forward applies dropout when train is true; at inference it is identity.
// The returned matrix is layer-owned scratch, valid until the next Forward.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := d.ForwardBegin(x, train)
	d.ForwardRows(0, x.Rows)
	return out
}

// ForwardBegin starts a chunked training-mode pass over x and returns the
// output matrix the chunks will fill (x itself when the pass is identity).
// ForwardRows must then be called with ascending, disjoint row ranges
// covering [0, x.Rows); a row's output is valid once its range has run.
func (d *Dropout) ForwardBegin(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.Rate == 0 {
		d.mask = nil
		d.fwdSrc = nil
		return x
	}
	d.fwdSrc = x
	d.mask = ensureMat(&d.maskBuf, x.Rows, x.Cols)
	return ensureMat(&d.outBuf, x.Rows, x.Cols)
}

// ForwardRows draws masks for rows [r0, r1) and writes the matching output
// rows. A no-op when the pass is identity.
func (d *Dropout) ForwardRows(r0, r1 int) {
	if d.mask == nil {
		return
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	lo, hi := r0*d.fwdSrc.Cols, r1*d.fwdSrc.Cols
	mask, out := d.mask.Data, d.outBuf.Data
	for i, v := range d.fwdSrc.Data[lo:hi] {
		if d.rng.Float32() < keep {
			mask[lo+i] = scale
			out[lo+i] = v * scale
		} else {
			mask[lo+i] = 0
			out[lo+i] = 0
		}
	}
}

// MaskRows draws the dropout masks for rows [r0, r1) without producing
// output, consuming the RNG stream exactly as ForwardRows would. This
// decouples the stream-ordered mask draw from the value-dependent output
// write: the arrival-order epoch drain draws the halo rows' masks in
// ascending row order while the row values are still in flight, then fills
// each peer's rows with ApplyMaskedRows as they land — bit-identical to a
// single ascending ForwardRows pass over the same range. A no-op when the
// pass is identity.
func (d *Dropout) MaskRows(r0, r1 int) {
	if d.mask == nil {
		return
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	lo, hi := r0*d.fwdSrc.Cols, r1*d.fwdSrc.Cols
	mask := d.mask.Data
	for i := lo; i < hi; i++ {
		if d.rng.Float32() < keep {
			mask[i] = scale
		} else {
			mask[i] = 0
		}
	}
}

// ApplyMaskedRows writes the output rows listed in rows from the current
// input and the masks drawn by MaskRows. Elementwise (no RNG), so rows may
// be applied in any order; each row exactly once per pass, after its input
// values are in place. Writes v*scale for kept elements and 0 for dropped
// ones — exactly what ForwardRows writes — so the split pass is
// bit-identical. A no-op when the pass is identity.
func (d *Dropout) ApplyMaskedRows(rows []int32) {
	if d.mask == nil {
		return
	}
	cols := d.fwdSrc.Cols
	src, mask, out := d.fwdSrc.Data, d.mask.Data, d.outBuf.Data
	for _, r := range rows {
		lo := int(r) * cols
		for c := 0; c < cols; c++ {
			// Branch like ForwardRows does: a literal 0 for dropped
			// elements, not src*0 (which differs on ±0/NaN inputs).
			if m := mask[lo+c]; m != 0 {
				out[lo+c] = src[lo+c] * m
			} else {
				out[lo+c] = 0
			}
		}
	}
}

// Backward routes gradients through the last Forward's mask. The returned
// matrix is layer-owned scratch, valid until the next Backward.
func (d *Dropout) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	dx := d.BackwardBegin(dOut)
	d.BackwardRows(0, dOut.Rows)
	return dx
}

// BackwardBegin starts a chunked backward pass and returns the gradient
// matrix the chunks will fill (dOut itself when the last Forward was
// identity). The mask application is elementwise — no RNG — so backward
// chunks may run in any order; each row must be covered exactly once.
func (d *Dropout) BackwardBegin(dOut *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		d.bwdSrc = nil
		return dOut
	}
	d.bwdSrc = dOut
	return ensureMat(&d.dxBuf, dOut.Rows, dOut.Cols)
}

// BackwardRows applies the mask to gradient rows [r0, r1). A no-op when the
// pass is identity.
func (d *Dropout) BackwardRows(r0, r1 int) {
	if d.bwdSrc == nil {
		return
	}
	lo, hi := r0*d.bwdSrc.Cols, r1*d.bwdSrc.Cols
	dx, mask := d.dxBuf.Data, d.mask.Data
	for i, v := range d.bwdSrc.Data[lo:hi] {
		dx[lo+i] = v * mask[lo+i]
	}
}

// SoftmaxCrossEntropy computes mean softmax cross-entropy over the rows of
// logits selected by mask, and the gradient with respect to logits.
// Rows outside the mask contribute zero loss and zero gradient.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int32, mask []bool) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return SoftmaxCrossEntropyInto(grad, logits, labels, mask), grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient into a
// caller-owned matrix (overwritten), for allocation-free training loops.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Matrix, labels []int32, mask []bool) float64 {
	if len(labels) < logits.Rows || len(mask) < logits.Rows {
		panic(fmt.Sprintf("nn: loss needs %d labels/mask, have %d/%d", logits.Rows, len(labels), len(mask)))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: loss grad shape %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	grad.Zero()
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := 1 / float64(count)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		row := logits.Row(i)
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		logZ := math.Log(sum) + float64(mx)
		y := labels[i]
		loss += (logZ - float64(row[y])) * inv
		g := grad.Row(i)
		for j, v := range row {
			p := math.Exp(float64(v) - logZ)
			g[j] = float32(p * inv)
		}
		g[y] -= float32(inv)
	}
	return loss
}

// SigmoidBCE computes mean binary cross-entropy with logits over masked rows
// against a 0/1 target matrix, averaged over rows and classes, plus the
// gradient with respect to logits.
func SigmoidBCE(logits, targets *tensor.Matrix, mask []bool) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return SigmoidBCEInto(grad, logits, targets, mask), grad
}

// SigmoidBCEInto is SigmoidBCE writing the gradient into a caller-owned
// matrix (overwritten).
func SigmoidBCEInto(grad, logits, targets *tensor.Matrix, mask []bool) float64 {
	if logits.Rows != targets.Rows || logits.Cols != targets.Cols {
		panic(fmt.Sprintf("nn: BCE shape mismatch %dx%d vs %dx%d", logits.Rows, logits.Cols, targets.Rows, targets.Cols))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: BCE grad shape %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	grad.Zero()
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := 1 / (float64(count) * float64(logits.Cols))
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		lrow, trow, grow := logits.Row(i), targets.Row(i), grad.Row(i)
		for j, x := range lrow {
			t := float64(trow[j])
			fx := float64(x)
			// log(1+exp(-|x|)) formulation for stability.
			loss += (math.Max(fx, 0) - fx*t + math.Log1p(math.Exp(-math.Abs(fx)))) * inv
			sig := 1 / (1 + math.Exp(-fx))
			grow[j] = float32((sig - t) * inv)
		}
	}
	return loss
}
