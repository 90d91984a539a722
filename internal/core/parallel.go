package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Message tags for the per-epoch protocol. Channels are FIFO per pair and
// the protocol is fully ordered, so constant per-phase tags suffice.
const (
	tagPositions = 1   // sampled boundary positions (Algorithm 1 line 6)
	tagForward   = 10  // + layer index: feature rows (line 9)
	tagBackward  = 200 // + layer index: feature gradient rows (line 13)
	tagReduce    = 900 // AllReduce of weight gradients (line 14)
)

// LocalPartition holds everything one worker owns: its inner slice of the
// dataset, the local adjacency over inner+halo node space, and reusable
// per-epoch scratch buffers.
type LocalPartition struct {
	ID  int
	NIn int // inner nodes (local ids [0, NIn))
	NBd int // boundary/halo slots (local ids [NIn, NIn+NBd))

	GlobalInner    []int32
	GlobalBoundary []int32

	// Full local adjacency at p=1: only inner rows have neighbors; halo rows
	// are empty (their aggregations are never computed locally).
	fullIndptr  []int64
	fullIndices []int32

	InvDeg      []float32 // per inner node, 1/global degree
	localNbrs   []int32   // per inner node, count of same-partition neighbors
	Features    *tensor.Matrix
	Labels      []int32
	LabelMatrix *tensor.Matrix
	TrainMask   []bool
	ValMask     []bool
	TestMask    []bool
	TrainCount  int

	// Per-epoch scratch, reused to avoid allocation churn. The fixed-shape
	// buffers are allocated once in NewLocalPartition; the model-dimension-
	// dependent matrices (layer inputs, halo payloads, gradients) come from
	// ws, an arena that reaches steady state after the first epoch. ws is
	// Reset at the end of every epoch: all buffers drawn from it are dead by
	// then (sent payloads are consumed within the epoch because the halo
	// protocol is fully matched, and activations/gradients are not referenced
	// across epochs).
	epochIndptr  []int64
	epochIndices []int32
	active       []bool
	eg           graph.Graph     // epoch subgraph header, rebuilt in place
	agg          *graph.AggIndex // epoch aggregation plan, rebuilt with eg
	ws           *tensor.Workspace
	myPos        [][]int32 // per peer: positions I sampled (cap: full recv list)
	theirPos     [][]int32 // per peer: received position slices (epoch-lived)
	sendRows     [][]int32 // per peer: inner rows to send (cap: full send list)
	recvSlots    [][]int32 // per peer: halo slots I fill (cap: full recv list)
	epochInvDeg  []float32 // effective-degree normalizer (EstimatorSelfNorm)

	// Per-epoch row partition for the pipelined engine (see pipeline.go):
	// haloFree lists the inner rows whose epoch-graph neighbors are all
	// inner (computable before boundary features arrive), haloDep the rows
	// with at least one sampled halo neighbor, haloSlots the active halo
	// slots — all ascending, recomputed alongside sampling.
	haloFree  []int32
	haloDep   []int32
	haloSlots []int32
	pendRecv  []comm.PendingRecvF32 // per peer: posted halo receives
	recvData  [][]float32           // per peer: drained payloads (staged fold)

	// Strategy-mode scratch (see strategy.go): lossMask is the per-epoch
	// intersection of TrainMask with the strategy's active inner rows, and
	// skipRows lists the inner rows excluded from compute entirely — only a
	// row-dropping strategy under an architecture whose staged backward
	// tolerates uncomputed rows (SAGE) populates it. For BNS both stay in
	// their pass-through state (lossMask aliases TrainMask semantics via the
	// engine, skipRows empty).
	lossMask []bool
	skipRows []int32

	// Arrival-order drain state (ScheduleOverlap, see pipeline.go): the
	// owner rank of every boundary slot (static), and the per-epoch row
	// buckets splitRows derives from it — peerRows[j] lists (ascending) the
	// halo-dependent rows with at least one active neighbor owned by j,
	// rowWaitInit[v] the number of distinct peers row v awaits (rowWait is
	// the per-layer working countdown, re-armed from rowWaitInit at the
	// start of every layer's drain), readyRows the scratch for rows
	// unlocked by one peer's arrival, peerMark the dedup marker used while
	// bucketing.
	slotOwner   []int32
	peerRows    [][]int32
	rowWaitInit []int32
	rowWait     []int32
	readyRows   []int32
	peerMark    []int32
}

// NewLocalPartition extracts partition i's local view from the dataset and
// topology.
func NewLocalPartition(ds *datagen.Dataset, t *Topology, i int) *LocalPartition {
	inner := t.Inner[i]
	boundary := t.Boundary[i]
	lp := &LocalPartition{
		ID:             i,
		NIn:            len(inner),
		NBd:            len(boundary),
		GlobalInner:    inner,
		GlobalBoundary: boundary,
	}
	n := lp.NIn + lp.NBd

	// Local id lookup: inner nodes by owner index, boundary via sorted search.
	haloOf := func(u int32) int32 {
		j := sort.Search(len(boundary), func(x int) bool { return boundary[x] >= u })
		return int32(lp.NIn + j)
	}

	lp.fullIndptr = make([]int64, n+1)
	for li, v := range inner {
		lp.fullIndptr[li+1] = lp.fullIndptr[li] + int64(t.G.Degree(v))
	}
	for li := lp.NIn; li < n; li++ {
		lp.fullIndptr[li+1] = lp.fullIndptr[li]
	}
	lp.fullIndices = make([]int32, lp.fullIndptr[lp.NIn])
	pos := 0
	for _, v := range inner {
		for _, u := range t.G.Neighbors(v) {
			if t.Parts[u] == int32(i) {
				lp.fullIndices[pos] = t.InnerIndex(u)
			} else {
				lp.fullIndices[pos] = haloOf(u)
			}
			pos++
		}
	}

	lp.InvDeg = make([]float32, lp.NIn)
	lp.localNbrs = make([]int32, lp.NIn)
	for li, v := range inner {
		if d := t.G.Degree(v); d > 0 {
			lp.InvDeg[li] = 1 / float32(d)
		}
		for _, u := range t.G.Neighbors(v) {
			if t.Parts[u] == int32(i) {
				lp.localNbrs[li]++
			}
		}
	}

	if ds.Features.Rows > 0 {
		lp.Features = tensor.GatherRows(ds.Features, inner)
	}
	if ds.Labels != nil {
		lp.Labels = make([]int32, lp.NIn)
		for li, v := range inner {
			lp.Labels[li] = ds.Labels[v]
		}
	}
	if ds.LabelMatrix != nil {
		lp.LabelMatrix = tensor.GatherRows(ds.LabelMatrix, inner)
	}
	lp.TrainMask = make([]bool, lp.NIn)
	lp.ValMask = make([]bool, lp.NIn)
	lp.TestMask = make([]bool, lp.NIn)
	for li, v := range inner {
		lp.TrainMask[li] = ds.TrainMask[v]
		lp.ValMask[li] = ds.ValMask[v]
		lp.TestMask[li] = ds.TestMask[v]
		if ds.TrainMask[v] {
			lp.TrainCount++
		}
	}

	lp.epochIndptr = make([]int64, n+1)
	lp.epochIndices = make([]int32, len(lp.fullIndices))
	lp.active = make([]bool, n)
	lp.agg = &graph.AggIndex{} // built alongside each epoch subgraph
	lp.ws = tensor.NewWorkspace()
	k := t.K
	lp.myPos = make([][]int32, k)
	lp.theirPos = make([][]int32, k)
	lp.sendRows = make([][]int32, k)
	lp.recvSlots = make([][]int32, k)
	for j := 0; j < k; j++ {
		if j == i {
			continue
		}
		lp.myPos[j] = make([]int32, 0, len(t.Recv[i][j]))
		lp.recvSlots[j] = make([]int32, 0, len(t.Recv[i][j]))
		lp.sendRows[j] = make([]int32, 0, len(t.Send[i][j]))
	}
	lp.epochInvDeg = make([]float32, lp.NIn)
	lp.lossMask = make([]bool, lp.NIn)
	lp.skipRows = make([]int32, 0, lp.NIn)
	lp.haloFree = make([]int32, 0, lp.NIn)
	lp.haloDep = make([]int32, 0, lp.NIn)
	lp.haloSlots = make([]int32, 0, lp.NBd)
	lp.pendRecv = make([]comm.PendingRecvF32, k)
	lp.recvData = make([][]float32, k)
	lp.slotOwner = make([]int32, lp.NBd)
	for x, u := range boundary {
		lp.slotOwner[x] = t.Parts[u]
	}
	lp.peerRows = make([][]int32, k)
	lp.rowWaitInit = make([]int32, lp.NIn)
	lp.rowWait = make([]int32, lp.NIn)
	lp.readyRows = make([]int32, 0, lp.NIn)
	lp.peerMark = make([]int32, k)
	return lp
}

// splitRows partitions the inner rows of the epoch subgraph into the
// halo-free set (no sampled boundary neighbor — their aggregation can run
// while halo features are in flight) and the halo-dependent remainder, and
// collects the active halo slots. All three lists are ascending, which the
// staged backward relies on for bit-identical accumulation order.
//
// It also buckets the halo-dependent rows by awaited peer for the
// arrival-order drain: peerRows[j] lists every row with an active neighbor
// owned by rank j, and rowWaitInit[v] counts row v's distinct awaited peers —
// the countdown that unlocks a row the moment its last peer's payload lands.
// The serialized schedule ignores the buckets; building them anyway costs it
// one full O(E) integer neighbor scan and keeps one loop for both.
//
// With restrict set (a row-dropping strategy under SAGE), inner rows with
// lp.active[v] false are excluded from both compute lists and collected in
// lp.skipRows instead: their projections are skipped outright and the
// engine zeroes their rows of the layer inputs and folded gradients so the
// staged SAGE backward — whose parameter-gradient kernels read every row —
// sees exact zeros rather than stale scratch. Without restrict every inner
// row is listed (an inactive row under GAT computes as an isolated node:
// its epoch-graph edges are gone, so it lands in the halo-free list, costs
// one self-attention, and contributes exactly zero gradient).
func (lp *LocalPartition) splitRows(eg *graph.Graph, restrict bool) {
	free, dep := lp.haloFree[:0], lp.haloDep[:0]
	skip := lp.skipRows[:0]
	for j := range lp.peerRows {
		lp.peerRows[j] = lp.peerRows[j][:0]
		lp.peerMark[j] = -1
	}
	nIn := int32(lp.NIn)
	for v := int32(0); v < nIn; v++ {
		if restrict && !lp.active[v] {
			skip = append(skip, v)
			lp.rowWaitInit[v] = 0
			continue
		}
		waits := int32(0)
		for _, u := range eg.Neighbors(v) {
			if u >= nIn {
				o := lp.slotOwner[u-nIn]
				if lp.peerMark[o] != v {
					lp.peerMark[o] = v
					lp.peerRows[o] = append(lp.peerRows[o], v)
					waits++
				}
			}
		}
		lp.rowWaitInit[v] = waits
		if waits > 0 {
			dep = append(dep, v)
		} else {
			free = append(free, v)
		}
	}
	slots := lp.haloSlots[:0]
	for s := lp.NIn; s < lp.NIn+lp.NBd; s++ {
		if lp.active[s] {
			slots = append(slots, int32(s))
		}
	}
	lp.haloFree, lp.haloDep, lp.skipRows, lp.haloSlots = free, dep, skip, slots
}

// epochGraph rebuilds the node-induced local subgraph on the plan's active
// rows (Algorithm 1 line 5 for BNS): edges into inactive rows are dropped,
// and an inactive inner row also drops its outgoing edges — node-induced
// semantics, which row-dropping strategies rely on so no kernel ever reads
// or gathers through an uncomputed row. Under BNS every inner row is active
// and this reduces to the historical boundary-edge filter.
// The aggregation plan (lp.agg — the SpMM engine's transposed index and
// edge-balanced chunks, which the model's layers hold a pointer to) is
// rebuilt in the same breath, so the layers always aggregate over the plan
// of the graph they are handed. The returned graph aliases reusable
// buffers — valid until the next call; the rebuild allocates nothing once
// capacities have warmed up.
func (lp *LocalPartition) epochGraph() *graph.Graph {
	n := lp.NIn + lp.NBd
	pos := int64(0)
	for v := 0; v < lp.NIn; v++ {
		lp.epochIndptr[v] = pos
		if !lp.active[v] {
			continue // inactive inner row: node-induced drop of all its edges
		}
		for _, u := range lp.fullIndices[lp.fullIndptr[v]:lp.fullIndptr[v+1]] {
			if lp.active[u] {
				lp.epochIndices[pos] = u
				pos++
			}
		}
	}
	for v := lp.NIn; v <= n; v++ {
		lp.epochIndptr[v] = pos
	}
	lp.eg = graph.Graph{N: n, Indptr: lp.epochIndptr, Indices: lp.epochIndices[:pos]}
	lp.agg.Build(&lp.eg)
	return &lp.eg
}

// Estimator selects how sampled neighbor aggregations are normalized.
type Estimator int

const (
	// EstimatorSelfNorm (default) pairs the 1/p feature rescale with the
	// matching effective-degree normalizer |local| + (1/p)·|sampled remote|.
	// The estimate is a convex combination of neighbor features — bounded —
	// and equals the exact mean at p=1. See DESIGN.md §6.
	EstimatorSelfNorm Estimator = iota
	// EstimatorHT is the paper's literal form: 1/p rescale normalized by the
	// full global degree (Horvitz–Thompson). Unbiased, but on low-degree
	// graphs a lone sampled neighbor carries weight 1/p and deep stacks
	// amplify the spikes; kept for the ablation study.
	EstimatorHT
)

// Schedule selects the epoch engine's stage schedule (see pipeline.go). The
// two schedules are bit-identical — same weights, losses, and per-rank
// payload bytes over every backend; the overlap equivalence tests pin this —
// they differ only in where the waits sit and in what order peer payloads
// are consumed, never in the arithmetic.
type Schedule int

const (
	// ScheduleOverlap — the default — is the pipelined schedule with the
	// arrival-order drain: halo sends/receives are posted first, halo-free
	// rows compute while boundary data is in flight, and each peer's
	// halo-dependent rows complete the moment that peer's payload lands
	// (whichever peer that is), so one slow peer no longer stalls rows whose
	// data already arrived.
	ScheduleOverlap Schedule = iota
	// ScheduleSerialized is the historical baseline: every wait up front,
	// then all compute. It is the reference the overlap equivalence tests
	// compare ScheduleOverlap against.
	ScheduleSerialized
)

// overlapped reports whether the schedule pipelines comm with compute.
func (s Schedule) overlapped() bool { return s != ScheduleSerialized }

// String names the schedule for logs and experiment tables.
func (s Schedule) String() string {
	switch s {
	case ScheduleOverlap:
		return "overlap/arrival"
	case ScheduleSerialized:
		return "serialized"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// ParallelConfig configures BNS-GCN training.
type ParallelConfig struct {
	Model ModelConfig
	// P is the boundary node sampling rate (Algorithm 1): 1 = vanilla
	// partition parallelism, 0 = fully isolated training.
	P float64
	// SampleSeed seeds the per-partition boundary sampling streams.
	SampleSeed uint64
	// Estimator selects the sampled-aggregation normalizer (SAGE only).
	Estimator Estimator
	// Schedule selects the epoch stage schedule. The zero value is
	// ScheduleOverlap: the pipelined engine with arrival-order draining is
	// the default, and ScheduleSerialized is the escape hatch
	// (cmd/bnsgcn -overlap=false).
	Schedule Schedule
	// Strategy, when non-nil, builds each rank's epoch-sampling strategy
	// (see strategy.go); nil keeps the paper's boundary-node sampling at
	// rate P, seeded from SampleSeed exactly as before the strategies
	// existed. Every rank of a run — including independently bootstrapped
	// processes — must use the same factory for replicas to stay
	// consistent.
	Strategy StrategyFactory
}

// EpochStats reports one epoch of parallel training. Durations are the
// maximum across workers (the straggler defines epoch time); byte counts are
// totals across workers.
type EpochStats struct {
	Loss        float64
	SampleTime  time.Duration
	ComputeTime time.Duration
	// CommTime is the raw halo-exchange span: payload gather/serialize plus
	// the full post-to-consumed window of every exchange. Under the
	// pipelined schedule (ParallelConfig.Schedule = ScheduleOverlap) that
	// window runs concurrently with ComputeTime, so the two overlap and must
	// not be summed — use ExposedCommTime for critical-path accounting.
	CommTime time.Duration
	// ExposedCommTime is the unoverlapped portion of comm: gather/serialize
	// work plus the time actually spent blocked waiting for boundary data
	// after overlappable compute has run. Serialized schedule: equals
	// CommTime (nothing is hidden). Pipelined schedule: the paper's
	// boundary-communication cost appears here only to the extent it could
	// not be hidden behind inner-node compute.
	ExposedCommTime time.Duration
	ReduceTime      time.Duration
	CommBytes       int64 // boundary feature + gradient traffic
	ReduceBytes     int64 // weight gradient AllReduce traffic
	SampledBd       []int // per partition: boundary nodes kept this epoch
}

// TotalTime returns the epoch wall-clock estimate: the sum of the phases on
// the critical path. Only the exposed (unoverlapped) communication time
// counts — raw CommTime runs concurrently with ComputeTime when overlap is
// on and would be double-counted.
func (s *EpochStats) TotalTime() time.Duration {
	return s.SampleTime + s.ComputeTime + s.ExposedCommTime + s.ReduceTime
}

// RankTrainer owns everything one rank needs to participate in BNS-GCN
// training: its local partition, its model replica, optimizer and sampling
// stream, and the per-epoch protocol. It is the unit of distribution — the
// in-process ParallelTrainer drives k of them on goroutines over a channel
// cluster, while a multi-process deployment runs exactly one per OS process
// over a TCP transport (see cmd/bnsgcn's -rank/-world/-rendezvous flags).
// Construction is deterministic given (dataset, topology, config, rank), so
// independently bootstrapped processes hold bit-identical replicas.
type RankTrainer struct {
	DS    *datagen.Dataset
	Topo  *Topology
	Cfg   ParallelConfig
	Rank  int
	LP    *LocalPartition
	Model *Model

	opt   optim.Optimizer
	strat Strategy
	view  PartitionView
	plan  Plan

	globalTrainCount int
	epoch            int
	evalTrainer      *FullTrainer // full-graph evaluator over a weight copy
	flatGrad         []float32    // reusable gradient AllReduce buffer
	// arrCh is the completion queue of the arrival-order drain: every
	// notify-posted halo receive delivers its peer's rank here when the
	// payload becomes consumable. Capacity K covers the at most K−1
	// notifications outstanding per phase, so the transport never blocks
	// delivering a token.
	arrCh chan int
}

// NewRankTrainer builds the local state for one rank of a k-way training
// run. Every rank must be constructed with the same dataset, topology, and
// config for the replicas to stay consistent.
func NewRankTrainer(ds *datagen.Dataset, topo *Topology, cfg ParallelConfig, rank int) (*RankTrainer, error) {
	if cfg.P < 0 || cfg.P > 1 {
		return nil, fmt.Errorf("core: sampling rate p=%v outside [0,1]", cfg.P)
	}
	if rank < 0 || rank >= topo.K {
		return nil, fmt.Errorf("core: rank %d out of [0,%d)", rank, topo.K)
	}
	model, err := NewModel(cfg.Model, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return nil, err
	}
	rt := &RankTrainer{
		DS:    ds,
		Topo:  topo,
		Cfg:   cfg,
		Rank:  rank,
		LP:    NewLocalPartition(ds, topo, rank),
		Model: model,
		opt:   optim.NewAdam(cfg.Model.LR),
		arrCh: make(chan int, topo.K),
	}
	// The epoch-sampling strategy: BNS by default, or whatever the config's
	// factory builds. It samples against the static partition view and fills
	// the per-epoch plan, whose Active/Positions slices alias the partition
	// scratch the engine already owns — planning an epoch allocates nothing.
	if cfg.Strategy != nil {
		rt.strat = cfg.Strategy(rank)
	} else {
		rt.strat = NewBNSStrategy(cfg.P, cfg.SampleSeed, rank)
	}
	lp := rt.LP
	rt.view = PartitionView{
		Rank: rank, K: topo.K, NIn: lp.NIn, NBd: lp.NBd,
		RecvLists: topo.Recv[rank],
		SlotOwner: lp.slotOwner,
		Indptr:    lp.fullIndptr,
		Indices:   lp.fullIndices,
		TrainMask: lp.TrainMask,
		InnerDeg:  make([]int32, lp.NIn),
		SlotDeg:   make([]int32, lp.NBd),
	}
	for li, v := range lp.GlobalInner {
		rt.view.InnerDeg[li] = int32(topo.G.Degree(v))
	}
	for si, u := range lp.GlobalBoundary {
		rt.view.SlotDeg[si] = int32(topo.G.Degree(u))
	}
	rt.strat.Bind(&rt.view)
	rt.plan = Plan{Active: lp.active, Positions: lp.myPos}
	// The layers aggregate over the per-epoch subgraph; install its plan
	// once — the pointer is stable, epochGraph rebuilds the contents (and
	// bumps the plan generation, so the fused kernels' FLOP-weighted chunk
	// lists refresh lazily on first use each epoch).
	rt.Model.SetAgg(rt.LP.agg)
	// The loss normalizer is the global number of training nodes, which is a
	// property of the dataset alone — no cross-rank exchange needed.
	for _, m := range ds.TrainMask {
		if m {
			rt.globalTrainCount++
		}
	}
	rt.flatGrad = make([]float32, 0, nn.ParamCount(model.Layers()))
	return rt, nil
}

// Epoch returns the number of completed training epochs.
func (rt *RankTrainer) Epoch() int { return rt.epoch }

// TrainEpoch runs one epoch of this rank's protocol over the worker's
// transport and reports local statistics. Any panic inside the epoch —
// including the transport failure raised when a peer dies — is converted to
// an error, and the transport is aborted so every surviving rank observes a
// connection error promptly instead of deadlocking on messages that will
// never arrive.
func (rt *RankTrainer) TrainEpoch(w *comm.Worker) (st RankStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			w.Transport().Abort()
			// Wrap error panic values so callers can dispatch on the cause
			// with errors.As — the elastic supervisor keys recovery on
			// finding a *comm.TransportError in this chain.
			if e, ok := r.(error); ok {
				err = fmt.Errorf("core: rank %d: epoch %d failed: %w", rt.Rank, rt.epoch, e)
			} else {
				err = fmt.Errorf("core: rank %d: epoch %d failed: %v", rt.Rank, rt.epoch, r)
			}
		}
	}()
	st = rt.runEpoch(w)
	rt.epoch++
	return st, nil
}

// Evaluate scores this rank's model replica on the given global mask with
// exact full-graph inference (the paper reports full-graph test accuracy).
// Replicas are bit-identical across ranks, so any rank's answer is the
// global answer.
func (rt *RankTrainer) Evaluate(mask []bool) float64 {
	if rt.evalTrainer == nil {
		model, err := NewModel(rt.Cfg.Model, rt.DS.FeatureDim(), rt.DS.NumClasses)
		if err != nil {
			panic(err)
		}
		rt.evalTrainer = NewFullTrainerFor(rt.DS, model)
	}
	rt.evalTrainer.Model.CopyWeightsFrom(rt.Model)
	return rt.evalTrainer.Evaluate(mask)
}

// ParallelTrainer trains one model replica per partition with boundary node
// sampling, following Algorithm 1: k RankTrainers driven concurrently over
// a comm.Group, one goroutine per partition playing the role of one GPU.
type ParallelTrainer struct {
	DS      *datagen.Dataset
	Topo    *Topology
	Cfg     ParallelConfig
	Ranks   []*RankTrainer
	Locals  []*LocalPartition // aliases Ranks[i].LP
	Cluster *comm.Cluster
	Models  []*Model // aliases Ranks[i].Model

	epoch    int
	statsBuf []RankStats
}

// NewParallelTrainer builds local partitions, one model replica per worker
// (identically initialized), and an in-process channel cluster.
func NewParallelTrainer(ds *datagen.Dataset, topo *Topology, cfg ParallelConfig) (*ParallelTrainer, error) {
	if cfg.P < 0 || cfg.P > 1 {
		return nil, fmt.Errorf("core: sampling rate p=%v outside [0,1]", cfg.P)
	}
	return NewParallelTrainerOver(ds, topo, cfg, comm.New(topo.K, 0))
}

// NewParallelTrainerOver is the backend-agnostic constructor: it accepts any
// group of k transport endpoints — the channel cluster NewParallelTrainer
// defaults to, or k loopback TCP endpoints as the cross-backend equivalence
// tests use — and drives the identical protocol over it.
func NewParallelTrainerOver(ds *datagen.Dataset, topo *Topology, cfg ParallelConfig, g *comm.Group) (*ParallelTrainer, error) {
	k := topo.K
	if g.Size() != k {
		return nil, fmt.Errorf("core: transport group has %d ranks, topology has %d", g.Size(), k)
	}
	t := &ParallelTrainer{
		DS:      ds,
		Topo:    topo,
		Cfg:     cfg,
		Cluster: g,
	}
	for i := 0; i < k; i++ {
		rt, err := NewRankTrainer(ds, topo, cfg, i)
		if err != nil {
			return nil, err
		}
		t.Ranks = append(t.Ranks, rt)
		t.Locals = append(t.Locals, rt.LP)
		t.Models = append(t.Models, rt.Model)
	}
	t.statsBuf = make([]RankStats, k)
	return t, nil
}

// RankStats collects one rank's per-epoch timing and byte counters. Loss is
// the rank's contribution to the global loss (the per-node losses of its
// inner training nodes over the global normalizer), so summing across ranks
// yields the global training loss. Comm is the raw exchange span,
// CommExposed its unoverlapped portion (see EpochStats).
type RankStats struct {
	Loss                          float64
	Sample, Compute, Comm, Reduce time.Duration
	CommExposed                   time.Duration
	CommBytes, ReduceBytes        int64
	SampledBd                     int
}

// TrainEpoch runs one synchronized BNS-GCN epoch across all partitions and
// returns aggregate statistics.
func (t *ParallelTrainer) TrainEpoch() *EpochStats {
	k := t.Topo.K
	stats := t.statsBuf
	t.Cluster.Run(func(w *comm.Worker) {
		// A panic on one rank (protocol bug, NaN guard, model error) aborts
		// the transport so the other ranks fail fast instead of blocking on
		// messages that will never arrive; the panic still propagates
		// through Run.
		defer func() {
			if r := recover(); r != nil {
				w.Transport().Abort()
				panic(r)
			}
		}()
		stats[w.Rank()] = t.Ranks[w.Rank()].runEpoch(w)
	})
	t.epoch++
	for _, rt := range t.Ranks {
		rt.epoch++
	}

	agg := &EpochStats{SampledBd: make([]int, k)}
	for i, s := range stats {
		agg.Loss += s.Loss
		agg.CommBytes += s.CommBytes
		agg.ReduceBytes += s.ReduceBytes
		agg.SampledBd[i] = s.SampledBd
		if s.Sample > agg.SampleTime {
			agg.SampleTime = s.Sample
		}
		if s.Compute > agg.ComputeTime {
			agg.ComputeTime = s.Compute
		}
		if s.Comm > agg.CommTime {
			agg.CommTime = s.Comm
		}
		if s.CommExposed > agg.ExposedCommTime {
			agg.ExposedCommTime = s.CommExposed
		}
		if s.Reduce > agg.ReduceTime {
			agg.ReduceTime = s.Reduce
		}
	}
	return agg
}

// Evaluate scores the trained model on the given global mask with exact
// full-graph inference (the paper reports full-graph test accuracy).
func (t *ParallelTrainer) Evaluate(mask []bool) float64 {
	return t.Ranks[0].Evaluate(mask)
}

// Epoch returns the number of completed training epochs.
func (t *ParallelTrainer) Epoch() int { return t.epoch }
