package sampling

import (
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// MinibatchTrainer trains a model with any subgraph Sampler, mirroring how
// the OGB reference implementations run the sampling baselines the paper
// compares against in Tables 4, 5 and 11. Every batch runs through the same
// Model driver and fused aggregation engine as the full-graph trainers, so
// time columns compare methods, not kernels. Sampling time is measured
// separately from compute time so Table 12's overhead percentages can be
// reproduced.
type MinibatchTrainer struct {
	DS      *datagen.Dataset
	Model   *core.Model
	Opt     optim.Optimizer
	Sampler Sampler

	SampleTime  time.Duration
	ComputeTime time.Duration
	eval        *core.FullTrainer // exact full-graph evaluator, shares Model

	// Trainer-owned batch scratch, sized to the largest batch seen and
	// reused — the same layer-owned-scratch discipline RankTrainer's epoch
	// engine runs with, so a steady-state TrainStep's only allocations are
	// the sampler's own batch assembly. batchAgg is rebuilt in place for
	// every batch graph.
	batchAgg    graph.AggIndex
	featsBuf    *tensor.Matrix
	labelMatBuf *tensor.Matrix
	gradBuf     *tensor.Matrix
	labelsBuf   []int32
	invDegBuf   []float32
}

// ensureMat returns a rows × cols matrix stored at *buf with undefined
// contents, reallocating only on capacity growth (nn's layer-scratch idiom).
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

// ensureI32 returns a length-n int32 slice stored at *buf, contents undefined.
func ensureI32(buf *[]int32, n int) []int32 {
	s := *buf
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// ensureF32 returns a length-n float32 slice stored at *buf, contents undefined.
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

// NewMinibatchTrainer builds a trainer around the given sampler.
func NewMinibatchTrainer(ds *datagen.Dataset, cfg core.ModelConfig, s Sampler) (*MinibatchTrainer, error) {
	model, err := core.NewModel(cfg, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return nil, err
	}
	return &MinibatchTrainer{
		DS:      ds,
		Model:   model,
		Opt:     optim.NewAdam(cfg.LR),
		Sampler: s,
		eval:    core.NewFullTrainerFor(ds, model),
	}, nil
}

// TrainStep samples one batch and applies one optimizer step, returning the
// batch loss.
func (t *MinibatchTrainer) TrainStep() float64 {
	ss := time.Now()
	batch := t.Sampler.Sample()
	t.SampleTime += time.Since(ss)

	cs := time.Now()
	defer func() { t.ComputeTime += time.Since(cs) }()

	feats := ensureMat(&t.featsBuf, len(batch.Nodes), t.DS.Features.Cols)
	tensor.GatherRowsInto(feats, t.DS.Features, batch.Nodes)
	var labels []int32
	var labelMatrix *tensor.Matrix
	if t.DS.MultiLabel {
		labelMatrix = ensureMat(&t.labelMatBuf, len(batch.Nodes), t.DS.LabelMatrix.Cols)
		tensor.GatherRowsInto(labelMatrix, t.DS.LabelMatrix, batch.Nodes)
	} else {
		labels = ensureI32(&t.labelsBuf, len(batch.Nodes))
		for i, v := range batch.Nodes {
			labels[i] = t.DS.Labels[v]
		}
	}
	invDeg := nn.InvDegreesInto(ensureF32(&t.invDegBuf, batch.G.N), batch.G)
	t.batchAgg.Build(batch.G)

	logits := t.Model.Forward(batch.G, &t.batchAgg, feats, invDeg, true)
	d := ensureMat(&t.gradBuf, logits.Rows, logits.Cols)
	loss := core.LossInto(d, t.DS, logits, labels, labelMatrix, batch.TargetMask, 0)
	t.Model.ZeroGrad()
	t.Model.Backward(d)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// TrainEpoch runs BatchesPerEpoch steps and returns the mean batch loss.
func (t *MinibatchTrainer) TrainEpoch() float64 {
	n := t.Sampler.BatchesPerEpoch()
	var sum float64
	for i := 0; i < n; i++ {
		sum += t.TrainStep()
	}
	return sum / float64(n)
}

// Evaluate scores the model with exact full-graph inference on mask.
func (t *MinibatchTrainer) Evaluate(mask []bool) float64 { return t.eval.Evaluate(mask) }

// OverheadFraction returns sampling time / (sampling + compute) time, the
// quantity Table 12 reports.
func (t *MinibatchTrainer) OverheadFraction() float64 {
	total := t.SampleTime + t.ComputeTime
	if total == 0 {
		return 0
	}
	return float64(t.SampleTime) / float64(total)
}
