package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const kernelReps = 5 // timed repetitions per layer and kernel; medians reported

// layerTimes times Model.LayersL[l].Forward and Backward over the whole
// workload graph with the trained weights, kernelReps times each, and
// returns the median per layer in milliseconds.
func layerTimes(ds *datagen.Dataset, trained *core.Model, tr *tracer) (fwd, bwd []float64, err error) {
	m, err := core.NewModel(trained.Config, trained.InDim, trained.OutDim)
	if err != nil {
		return nil, nil, err
	}
	m.CopyWeightsFrom(trained)
	m.SetAgg(graph.NewAggIndex(ds.G))
	invDeg := nn.InvDegrees(ds.G)
	n := ds.G.N
	L := len(m.LayersL)
	fs := make([][]time.Duration, L)
	bs := make([][]time.Duration, L)
	dOut := tensor.New(n, m.OutDim)
	for i := range dOut.Data {
		dOut.Data[i] = 1 / float32(n)
	}
	for rep := 0; rep < kernelReps; rep++ {
		h := ds.Features
		for l, layer := range m.LayersL {
			id := tr.begin("nn.Layer.Forward", 0, -1)
			start := time.Now()
			h = layer.Forward(ds.G, h, n, invDeg)
			fs[l] = append(fs[l], time.Since(start))
			tr.end(id)
		}
		d := dOut
		for l := L - 1; l >= 0; l-- {
			id := tr.begin("nn.Layer.Backward", 0, -1)
			start := time.Now()
			d = m.LayersL[l].Backward(d)
			bs[l] = append(bs[l], time.Since(start))
			tr.end(id)
		}
	}
	for l := 0; l < L; l++ {
		fwd = append(fwd, median(durationsMS(fs[l])))
		bwd = append(bwd, median(durationsMS(bs[l])))
	}
	return fwd, bwd, nil
}

// kernelRates times tensor.MatMul on one partition's per-layer projection
// shapes (inner rows × layer input → layer output) and tensor.SpMM on the
// whole graph at each layer's input width. FLOPs and bytes are computed from
// the tensor sizes: 2·m·k·n per MatMul; for SpMM the gathered rows, the
// column indices, the row pointers, the scale vector and the output.
func kernelRates(ds *datagen.Dataset, topo *core.Topology, dims []int, outDim int, tr *tracer) (gflops, gbs float64) {
	rows := len(topo.Inner[0])
	rng := tensor.NewRNG(7)
	var flops, mmNS float64
	for l, in := range dims {
		out := outDim
		if l+1 < len(dims) {
			out = dims[l+1]
		}
		a, b, c := tensor.New(rows, in), tensor.New(in, out), tensor.New(rows, out)
		fill(a, rng)
		fill(b, rng)
		var ts []time.Duration
		for rep := 0; rep < kernelReps; rep++ {
			id := tr.begin("tensor.MatMul", 0, -1)
			start := time.Now()
			tensor.MatMul(c, a, b)
			ts = append(ts, time.Since(start))
			tr.end(id)
		}
		flops += 2 * float64(rows) * float64(in) * float64(out)
		mmNS += median(durationsMS(ts)) * 1e6
	}

	g := ds.G
	agg := graph.NewAggIndex(g)
	scale := nn.InvDegrees(g)
	nnz := float64(len(g.Indices))
	var bytes, spNS float64
	for _, in := range dims {
		x, out := tensor.New(g.N, in), tensor.New(g.N, in)
		fill(x, rng)
		var ts []time.Duration
		for rep := 0; rep < kernelReps; rep++ {
			id := tr.begin("tensor.SpMM", 0, -1)
			start := time.Now()
			tensor.SpMM(out, x, g.Indptr, g.Indices, scale, agg.Chunks)
			ts = append(ts, time.Since(start))
			tr.end(id)
		}
		bytes += 4*nnz*float64(in) + 4*nnz + 8*float64(g.N+1) + 4*float64(g.N) + 4*float64(g.N)*float64(in)
		spNS += median(durationsMS(ts)) * 1e6
	}
	return flops / mmNS, bytes / spNS
}

func fill(m *tensor.Matrix, rng *tensor.RNG) {
	for i := range m.Data {
		m.Data[i] = float32(rng.Float64()*2 - 1)
	}
}
