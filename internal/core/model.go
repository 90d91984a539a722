package core

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Arch selects the model family.
type Arch string

const (
	// ArchSAGE is GraphSAGE with a mean aggregator, the paper's main model.
	ArchSAGE Arch = "sage"
	// ArchGAT is single-head graph attention (Table 10 scenario).
	ArchGAT Arch = "gat"
)

// ModelConfig describes a GCN model as in the paper's Section 4 setups
// (e.g. Reddit: 4 layers, 256 hidden, lr 0.01, dropout 0.5).
type ModelConfig struct {
	Arch    Arch
	Layers  int
	Hidden  int
	Dropout float32
	LR      float32
	Seed    uint64
}

// Validate checks the configuration.
func (c *ModelConfig) Validate() error {
	if c.Arch != ArchSAGE && c.Arch != ArchGAT {
		return fmt.Errorf("core: unknown arch %q", c.Arch)
	}
	if c.Layers < 1 {
		return fmt.Errorf("core: need >=1 layer, got %d", c.Layers)
	}
	if c.Hidden < 1 {
		return fmt.Errorf("core: hidden dim %d", c.Hidden)
	}
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("core: dropout %v", c.Dropout)
	}
	return nil
}

// GraphLayer is the uniform layer interface the trainers drive: the staged
// row-list passes of nn.GraphConv (what the pipelined epoch engine,
// Model.Forward/Backward and the serving engine run), plus Forward/Backward, a
// whole pass through those stages (nn.Forward/nn.Backward) over a local node
// space producing outputs for the first nOut rows and input gradients for
// all rows.
type GraphLayer interface {
	nn.GraphConv
	Forward(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix
	Backward(dOut *tensor.Matrix) *tensor.Matrix
}

// graphLayer adapts an nn graph layer to GraphLayer.
type graphLayer struct{ nn.GraphConv }

func (l graphLayer) Forward(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix {
	return nn.Forward(l.GraphConv, g, h, nOut, invDeg)
}

func (l graphLayer) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	return nn.Backward(l.GraphConv, dOut)
}

// Model is a stack of graph layers with per-layer dropout, replicated on
// every partition during parallel training.
type Model struct {
	Config   ModelConfig
	LayersL  []GraphLayer
	Dropouts []*nn.Dropout
	InDim    int
	OutDim   int

	// Memoized views of the (static) layer stack, so per-epoch calls to
	// Layers/Params/Grads allocate nothing.
	layersCache []nn.Layer
	paramsCache []*tensor.Matrix
	gradsCache  []*tensor.Matrix
}

// NewModel builds a model with deterministic initialization from cfg.Seed.
// All replicas built with the same seed hold bit-identical weights.
func NewModel(cfg ModelConfig, inDim, outDim int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	m := &Model{Config: cfg, InDim: inDim, OutDim: outDim}
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.Hidden
		out := cfg.Hidden
		act := nn.ReLUAct
		if l == 0 {
			in = inDim
		}
		if l == cfg.Layers-1 {
			out = outDim
			act = nn.NoAct
		}
		switch cfg.Arch {
		case ArchSAGE:
			m.LayersL = append(m.LayersL, graphLayer{nn.NewSAGEConv(in, out, act, rng)})
		case ArchGAT:
			m.LayersL = append(m.LayersL, graphLayer{nn.NewGATConv(in, out, act, rng)})
		}
		m.Dropouts = append(m.Dropouts, nn.NewDropout(cfg.Dropout, rng))
	}
	for _, l := range m.LayersL {
		m.layersCache = append(m.layersCache, l)
		m.paramsCache = append(m.paramsCache, l.Params()...)
		m.gradsCache = append(m.gradsCache, l.Grads()...)
	}
	return m, nil
}

// Layers returns the stack as nn.Layer values for optimizers and grad
// flattening. The returned slice is shared; callers must not mutate it.
func (m *Model) Layers() []nn.Layer { return m.layersCache }

// SetAgg installs one aggregation plan on every layer. All layers of a
// model run over the same local graph, so one plan serves the whole stack;
// the caller keeps ownership and rebuilds it when its graph changes.
func (m *Model) SetAgg(ai *graph.AggIndex) {
	for _, l := range m.LayersL {
		l.SetAgg(ai)
	}
}

// Forward runs the whole stack over g, producing outputs for every row:
// per layer, dropout (identity unless train) and then the graph layer. ai
// must be the aggregation plan built from g; it is installed on every layer
// first, so trainers that alternate between graphs (a sampled batch, then
// the full graph for evaluation) pass each graph with its own plan. The
// returned logits are layer-owned scratch, valid until the next Forward.
func (m *Model) Forward(g *graph.Graph, ai *graph.AggIndex, h *tensor.Matrix, invDeg []float32, train bool) *tensor.Matrix {
	m.SetAgg(ai)
	for l, layer := range m.LayersL {
		h = m.Dropouts[l].Forward(h, train)
		h = layer.Forward(g, h, g.N, invDeg)
	}
	return h
}

// Backward propagates dLogits down the stack through the last Forward's
// layers and dropout masks, accumulating parameter gradients.
func (m *Model) Backward(dLogits *tensor.Matrix) {
	d := dLogits
	for l := len(m.LayersL) - 1; l >= 0; l-- {
		d = m.LayersL[l].Backward(d)
		d = m.Dropouts[l].Backward(d)
	}
}

// LayerInputDims returns the input feature dimension of every layer, the d^(ℓ)
// sequence of Eq. 4.
func (m *Model) LayerInputDims() []int {
	dims := make([]int, len(m.LayersL))
	for i, l := range m.LayersL {
		dims[i] = l.InputDim()
	}
	return dims
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, l := range m.LayersL {
		l.ZeroGrad()
	}
}

// Params returns all trainable parameters in deterministic order. The
// returned slice is shared; callers must not mutate it.
func (m *Model) Params() []*tensor.Matrix { return m.paramsCache }

// Grads returns all gradients aligned with Params. The returned slice is
// shared; callers must not mutate it.
func (m *Model) Grads() []*tensor.Matrix { return m.gradsCache }

// CopyWeightsFrom copies parameters from src (same architecture).
func (m *Model) CopyWeightsFrom(src *Model) {
	sp := src.Params()
	dp := m.Params()
	if len(sp) != len(dp) {
		panic(fmt.Sprintf("core: weight copy across different models: %d vs %d params", len(sp), len(dp)))
	}
	for i := range dp {
		dp[i].CopyFrom(sp[i])
	}
}

// Loss computes the dataset-appropriate loss and logit gradient over masked
// rows, rescaled so that summing across partitions yields the global mean
// loss: both loss and gradient are multiplied by (local masked count /
// denom). Pass denom == global masked count; for single-process training use
// the local count itself.
func Loss(ds *datagen.Dataset, logits *tensor.Matrix, labels []int32, labelMatrix *tensor.Matrix, mask []bool, denom int) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	loss := LossInto(grad, ds, logits, labels, labelMatrix, mask, denom)
	return loss, grad
}

// LossInto is Loss writing the gradient into a caller-owned matrix
// (overwritten), for allocation-free training loops.
func LossInto(grad *tensor.Matrix, ds *datagen.Dataset, logits *tensor.Matrix, labels []int32, labelMatrix *tensor.Matrix, mask []bool, denom int) float64 {
	local := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			local++
		}
	}
	var loss float64
	if ds.MultiLabel {
		loss = nn.SigmoidBCEInto(grad, logits, labelMatrix, mask)
	} else {
		loss = nn.SoftmaxCrossEntropyInto(grad, logits, labels, mask)
	}
	if denom > 0 && local != denom {
		scale := float64(local) / float64(denom)
		loss *= scale
		grad.Scale(float32(scale))
	}
	return loss
}
