package sampling

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// baselineSignature runs epochs of a baseline trainer and folds the
// per-epoch losses followed by the final weights into one FNV-64a hash (the
// same fold as core's TestBNSStrategyGolden). A changed RNG draw or a
// reordered float add anywhere in the step changes it.
func baselineSignature(epochs int, step func() float64, model *core.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for e := 0; e < epochs; e++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(step()))
		h.Write(buf[:])
	}
	for _, p := range model.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}

// TestBaselineTrainerGolden pins the sampling baselines' training numerics
// to signatures captured before they ran on the fused aggregation engine
// (when their layers took the unfused concat fallback). Engine and fallback
// are bit-identical by construction, so these must hold unchanged; re-capture
// only for an intentional numerics change. Like TestBNSStrategyGolden, the
// hash encodes float summation order, which varies with the kernel pool
// width, so it is asserted only at the capture width (GOMAXPROCS=1).
func TestBaselineTrainerGolden(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func(t *testing.T) uint64
	}{
		{"minibatch/sage", 0x5b7fe4fa178a15c6, func(t *testing.T) uint64 { return minibatchSignature(t, core.ArchSAGE) }},
		{"minibatch/gat", 0x918057920be4bde1, func(t *testing.T) uint64 { return minibatchSignature(t, core.ArchGAT) }},
		{"edgedrop/sage", 0x42da5f72499938bb, edgeDropSignature},
	}
	for _, c := range cases {
		got := c.run(t)
		if tensor.Parallelism() != 1 {
			t.Logf("%s: signature %#x (pool width %d != capture width 1, not asserted)", c.name, got, tensor.Parallelism())
			continue
		}
		if got != c.want {
			t.Errorf("%s: signature %#x, want %#x", c.name, got, c.want)
		}
	}
}

func baselineCfg(arch core.Arch) core.ModelConfig {
	return core.ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 7}
}

func minibatchSignature(t *testing.T, arch core.Arch) uint64 {
	ds := testDataset(t, 61)
	tr, err := NewMinibatchTrainer(ds, baselineCfg(arch), NewNeighborSampler(ds.G, ds.TrainMask, 64, 5, 2, 62))
	if err != nil {
		t.Fatal(err)
	}
	return baselineSignature(3, tr.TrainEpoch, tr.Model)
}

func edgeDropSignature(t *testing.T) uint64 {
	ds := testDataset(t, 63)
	tr, err := NewEdgeDropTrainer(ds, buildTopo(t, ds, 4), baselineCfg(core.ArchSAGE), DropEdgeGlobal, 0.7, 64)
	if err != nil {
		t.Fatal(err)
	}
	return baselineSignature(4, tr.TrainEpoch, tr.Model)
}
