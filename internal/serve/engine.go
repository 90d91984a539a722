// Package serve turns a trained BNS-GCN checkpoint into an online
// node-classification service. The training side of the repo computes
// full-graph passes; serving inverts the access pattern — many small queries
// against a mostly-static graph — so the engine precomputes every hidden
// layer once at startup, keeps the final layer's staged pass permanently
// open, and answers each query batch with one row-list pass over exactly
// the requested logit rows (sorted ascending, as every row list is), riding
// the same layer stages and tensor.SpMMMatMulRows/MatMulRows kernels the
// trainers use. A full pass is the all-rows list of those same stages, so a
// served logit row equals the FullTrainer.Forward(false) row for the same
// checkpoint, bit for bit.
//
// Feature updates do not recompute the graph: an incremental pass re-embeds
// only the changed node's receptive field — the frontier grows one
// neighborhood hop per layer — and evicts just the affected logit rows from
// the cache.
package serve

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Stats counts what the engine has done. All counters are cumulative; the
// engine is single-owner (see Server's dispatcher), so reads are exact.
type Stats struct {
	Predicts int64 `json:"predicts"` // Predict calls (batches)
	Nodes    int64 `json:"nodes"`    // node lookups across all Predict calls
	Hits     int64 `json:"hits"`     // lookups answered from the embedding cache
	Misses   int64 `json:"misses"`   // lookups that needed a fresh final-layer row pass
	Updates  int64 `json:"updates"`  // UpdateFeature calls
	// Recomputed counts hidden-layer rows re-embedded by updates;
	// Evicted counts final-layer cache rows invalidated by updates.
	Recomputed int64 `json:"recomputed"`
	Evicted    int64 `json:"evicted"`
	CacheLen   int   `json:"cache_len"`
	CacheCap   int   `json:"cache_cap"`
}

// Engine owns a model, a graph, and the activation state of a permanently
// open inference pass. It is NOT safe for concurrent use — the HTTP layer
// serializes access through a single dispatcher goroutine, which is also
// what makes request batching natural.
type Engine struct {
	g      *graph.Graph
	model  *core.Model
	invDeg []float32
	agg    *graph.AggIndex

	// acts[l] is the input to layer l (acts[0] is the mutable feature
	// copy); outs[l] is layer l's own output buffer, whose rows l's
	// ForwardRows fills. Hidden-layer outputs are mirrored into acts[l+1]
	// because the layer reuses its buffer across passes while acts must
	// stay authoritative.
	acts []*tensor.Matrix
	outs []*tensor.Matrix

	// Reverse CSR: revIndices[revIndptr[u]:revIndptr[u+1]] lists the nodes
	// whose aggregation reads u — the one-hop spread of a feature change.
	revIndptr  []int64
	revIndices []int32

	cache *lruCache
	// mark/stamp implement O(frontier) set membership without clearing.
	mark  []int64
	stamp int64
	stats Stats
}

// NewEngine precomputes all hidden activations for the graph and opens the
// final layer's row pass. feats is copied, and the model's weights are cloned
// into a private model — the caller keeps ownership of both. Cloning is
// load-bearing, not defensive copying for style: the engine's permanently
// open pass lives in the layers' forward state, and a shared trainer calling
// Forward on the same layer objects would silently re-point that state at
// its own activations.
func NewEngine(model *core.Model, g *graph.Graph, feats *tensor.Matrix, cacheSize int) (*Engine, error) {
	if feats.Rows != g.N {
		return nil, fmt.Errorf("serve: %d feature rows for a %d-node graph", feats.Rows, g.N)
	}
	if feats.Cols != model.InDim {
		return nil, fmt.Errorf("serve: feature dim %d, model wants %d", feats.Cols, model.InDim)
	}
	if cacheSize <= 0 {
		cacheSize = 1
	}
	clone, err := core.NewModel(model.Config, model.InDim, model.OutDim)
	if err != nil {
		return nil, err
	}
	clone.CopyWeightsFrom(model)
	model = clone
	e := &Engine{
		g:      g,
		model:  model,
		invDeg: nn.InvDegrees(g),
		agg:    graph.NewAggIndex(g),
		cache:  newLRUCache(cacheSize),
		mark:   make([]int64, g.N),
	}
	model.SetAgg(e.agg)

	// Reverse adjacency by counting sort over the edge list.
	e.revIndptr = make([]int64, g.N+1)
	for _, u := range g.Indices {
		e.revIndptr[u+1]++
	}
	for v := 0; v < g.N; v++ {
		e.revIndptr[v+1] += e.revIndptr[v]
	}
	e.revIndices = make([]int32, len(g.Indices))
	fill := make([]int64, g.N)
	for v := 0; v < g.N; v++ {
		for _, u := range g.Indices[g.Indptr[v]:g.Indptr[v+1]] {
			e.revIndices[e.revIndptr[u]+fill[u]] = int32(v)
			fill[u]++
		}
	}

	// Startup pass: exactly FullTrainer.Forward(false) — dropout is identity
	// at inference, so the stack reduces to the layer forwards. Hidden
	// layers run a full pass and are mirrored; the final layer's pass is
	// left open (ForwardBegin + full prep) so ForwardRows can fill any logit
	// row on demand.
	L := len(model.LayersL)
	e.acts = make([]*tensor.Matrix, L)
	e.outs = make([]*tensor.Matrix, L)
	e.acts[0] = tensor.New(feats.Rows, feats.Cols)
	e.acts[0].CopyFrom(feats)
	for l := 0; l < L-1; l++ {
		layer := model.LayersL[l]
		out := layer.Forward(g, e.acts[l], g.N, e.invDeg)
		e.outs[l] = out
		e.acts[l+1] = tensor.New(out.Rows, out.Cols)
		e.acts[l+1].CopyFrom(out)
	}
	final := model.LayersL[L-1]
	e.outs[L-1] = final.ForwardBegin(g, e.acts[L-1], g.N, e.invDeg)
	final.ForwardPrep(e.agg.Ident)
	return e, nil
}

// NumNodes returns the size of the served graph's node space.
func (e *Engine) NumNodes() int { return e.g.N }

// NumClasses returns the width of a logit row.
func (e *Engine) NumClasses() int { return e.model.OutDim }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CacheLen = e.cache.len()
	s.CacheCap = e.cache.cap
	return s
}

// Predict returns the logit row for every requested node, in request order.
// Cached rows are served as-is; the misses — deduplicated — are computed in
// ONE final-layer row-subset pass, which is where batching pays: coalescing
// k concurrent single-node queries costs one kernel launch over k rows, not
// k launches. Every returned row is a private copy.
func (e *Engine) Predict(nodes []int32) ([][]float32, error) {
	for _, v := range nodes {
		if v < 0 || int(v) >= e.g.N {
			return nil, fmt.Errorf("serve: node %d outside [0,%d)", v, e.g.N)
		}
	}
	e.stats.Predicts++
	e.stats.Nodes += int64(len(nodes))

	// Batch-local rows: cache hits plus everything computed this batch. A
	// local map (not the cache) carries the batch so an eviction mid-batch
	// cannot drop a row a later request in the same batch needs.
	rows := make(map[int32][]float32, len(nodes))
	var miss []int32
	e.stamp++
	for _, v := range nodes {
		if _, ok := rows[v]; ok {
			e.stats.Hits++
			continue
		}
		if row, ok := e.cache.get(v); ok {
			rows[v] = row
			e.stats.Hits++
			continue
		}
		e.stats.Misses++
		if e.mark[v] != e.stamp {
			e.mark[v] = e.stamp
			miss = append(miss, v)
		}
	}
	if len(miss) > 0 {
		// Row lists are ascending: the kernels split them at the plan's
		// chunk boundaries.
		slices.Sort(miss)
		final := e.model.LayersL[len(e.model.LayersL)-1]
		final.ForwardRows(miss)
		out := e.outs[len(e.outs)-1]
		for _, v := range miss {
			row := append([]float32(nil), out.Row(int(v))...)
			rows[v] = row
			e.cache.put(v, row)
		}
	}
	res := make([][]float32, len(nodes))
	for i, v := range nodes {
		res[i] = rows[v]
	}
	return res, nil
}

// affected expands a set of changed input rows by one aggregation hop: the
// rows themselves (every layer reads its own row — SAGE's self-concat,
// GAT's self-attention slot) plus every node whose neighborhood contains
// one. Returns a sorted, duplicate-free list.
func (e *Engine) affected(changed []int32) []int32 {
	e.stamp++
	var out []int32
	add := func(v int32) {
		if e.mark[v] != e.stamp {
			e.mark[v] = e.stamp
			out = append(out, v)
		}
	}
	for _, u := range changed {
		add(u)
		for _, v := range e.revIndices[e.revIndptr[u]:e.revIndptr[u+1]] {
			add(v)
		}
	}
	slices.Sort(out)
	return out
}

// UpdateFeature replaces node's input features and re-embeds exactly its
// receptive field: the changed-row frontier starts at the node and widens by
// one hop per layer — hidden rows are recomputed in place, and the final
// layer's affected logit rows are evicted from the cache to be recomputed
// lazily on their next request. Returns the number of hidden rows
// recomputed plus logit rows evicted.
func (e *Engine) UpdateFeature(node int32, feat []float32) (int, error) {
	if node < 0 || int(node) >= e.g.N {
		return 0, fmt.Errorf("serve: node %d outside [0,%d)", node, e.g.N)
	}
	if len(feat) != e.model.InDim {
		return 0, fmt.Errorf("serve: %d features for node %d, model wants %d", len(feat), node, e.model.InDim)
	}
	e.stats.Updates++
	copy(e.acts[0].Row(int(node)), feat)

	touched := 0
	changed := []int32{node}
	L := len(e.model.LayersL)
	for l := 0; l < L; l++ {
		layer := e.model.LayersL[l]
		// Refresh per-input-row precomputations for the rows that changed
		// (GAT's Wh and attention scores; a no-op for SAGE) before any
		// output row that attends to them is recomputed.
		layer.ForwardPrep(changed)
		rows := e.affected(changed)
		if l < L-1 {
			layer.ForwardRows(rows)
			for _, v := range rows {
				copy(e.acts[l+1].Row(int(v)), e.outs[l].Row(int(v)))
			}
			e.stats.Recomputed += int64(len(rows))
		} else {
			for _, v := range rows {
				if e.cache.remove(v) {
					e.stats.Evicted++
				}
			}
		}
		touched += len(rows)
		changed = rows
	}
	return touched, nil
}
