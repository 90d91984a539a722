package main

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The serving load: an open loop of Poisson predict arrivals, each asking
// for nodesPerReq Zipf-skewed nodes, beside a fixed-rate stream of feature
// writes. Each write recomputes its node's receptive field on the single
// dispatcher, so reads queue behind it.
const (
	cacheDivisor = 4 // the engine caches N/4 logit rows
	nodesPerReq  = 4
	zipfS        = 1.1
	refRate      = 2000.0 // predicts/s at the reference rate
	updateRate   = 30.0   // feature writes/s, beside every phase
	// p99Limit is the predict p99 a ladder rung holds to: twice the longest
	// writes, so a rung fails when reads queue, not whenever a write lands.
	p99Limit = 50 * time.Millisecond
	// The ladder starts at ladderStart predicts/s and doubles while rungs
	// pass (halves while they fail), within [ladderMin, ladderMax].
	ladderStart = 32000.0
	ladderMin   = 250.0
	ladderMax   = 512000.0
	rungDur     = 750 * time.Millisecond
	bisectSteps = 3 // geometric bisections between the last pass and the first fail
	// clients is the predict senders' pool size: enough that the
	// reference rate never waits for a free client outside a write stall,
	// and below the server's default queue depth (256), so requests queue
	// in the schedule rather than being shed.
	clients   = 128
	checkRows = 256
)

// opRecord is one request of the open loop. Latency is timed from due, the
// moment the schedule said to send, so a stall also counts against the
// requests it delays; sent-due is the generator's own lateness.
type opRecord struct {
	due, sent, done time.Time
	err             error
	bad             bool // served rows failed the shape or finiteness check
	traced          bool
}

func (r *opRecord) latency() time.Duration { return r.done.Sub(r.due) }

// loadGen drives one server and mirrors the features it was sent.
type loadGen struct {
	srv         *serve.Server
	numClasses  int
	rng         *rand.Rand
	zipf        *rand.Zipf
	hot         []int32        // Zipf rank -> node id, so hot nodes are spread over the graph
	byCost      []int32        // nodes in ascending write cost
	cost        []int64        // write cost per node (writeCost)
	lastTargets []int32        // the nodes the latest phase wrote
	mirror      *tensor.Matrix // the features after every update sent so far
	tr          *tracer
}

func newLoadGen(srv *serve.Server, ds *datagen.Dataset, seed uint64, tr *tracer) *loadGen {
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed0003)))
	n := ds.G.N
	g := &loadGen{
		srv: srv, numClasses: ds.NumClasses, rng: rng,
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		hot:    make([]int32, n),
		mirror: tensor.New(ds.Features.Rows, ds.Features.Cols),
		tr:     tr,
	}
	for i, v := range rng.Perm(n) {
		g.hot[i] = int32(v)
	}
	g.cost = writeCosts(ds.G)
	for v := 0; v < n; v++ {
		g.byCost = append(g.byCost, int32(v))
	}
	sort.SliceStable(g.byCost, func(i, j int) bool { return g.cost[g.byCost[i]] < g.cost[g.byCost[j]] })
	g.mirror.CopyFrom(ds.Features)
	return g
}

// writeCosts estimates, per node v, the work of a write to v: the engine
// recomputes the first hidden layer on v and its neighbors H1, the second
// on H1 and their neighbors H2, aggregating over each row's neighbors, so
// the cost grows with the summed degree over H2.
func writeCosts(g *graph.Graph) []int64 {
	cost := make([]int64, g.N)
	mark := make([]int32, g.N)
	var h []int32
	for v := int32(0); v < int32(g.N); v++ {
		stamp := v + 1
		add := func(u int32) {
			if mark[u] != stamp {
				mark[u] = stamp
				h = append(h, u)
			}
		}
		h = h[:0]
		add(v)
		for _, u := range g.Neighbors(v) {
			add(u)
		}
		for _, u := range h[:len(h):len(h)] {
			for _, w := range g.Neighbors(u) {
				add(w)
			}
		}
		for _, u := range h {
			cost[v] += int64(g.Degree(u))
		}
	}
	return cost
}

// The write stream's cost profile is part of the workload, not of the
// seed: write costs follow a log-normal with this median and log standard
// deviation (near the graphs' own), and each write goes to the free node
// whose cost is nearest its profile point. The seed's graph decides which
// nodes those are but not how heavy the writes are; left to the graph, the
// hub sizes, which move its 90th-percentile write cost twofold from one
// seed to the next, would set the serving tails.
const (
	writeCostMedian = 33000
	writeCostLogSD  = 0.65
)

// updateTargets returns n distinct nodes to write, in order. The costs they
// are chosen for are the profile's quantiles at the midpoints of n equal
// strata. Consecutive groups of perGroup writes each take every
// (n/perGroup)-th of them, in seeded random order, so every group — one
// second of writes — spans the same range of cheap and expensive writes.
func (g *loadGen) updateTargets(n, perGroup int) []int32 {
	used := map[int32]bool{}
	sample := make([]int32, n)
	for j := n - 1; j >= 0; j-- { // dearest first: they have the fewest candidates
		z := math.Sqrt2 * math.Erfinv(2*(float64(j)+0.5)/float64(n)-1)
		sample[j] = g.nearestFree(int64(writeCostMedian*math.Exp(writeCostLogSD*z)), used)
		used[sample[j]] = true
	}
	groups := (n + perGroup - 1) / perGroup
	out := make([]int32, 0, n)
	for w := 0; w < groups; w++ {
		start := len(out)
		for j := w; j < n; j += groups {
			out = append(out, sample[j])
		}
		grp := out[start:]
		g.rng.Shuffle(len(grp), func(i, j int) { grp[i], grp[j] = grp[j], grp[i] })
	}
	return out
}

// nearestFree returns the node not in used whose cost is nearest target.
func (g *loadGen) nearestFree(target int64, used map[int32]bool) int32 {
	i := sort.Search(len(g.byCost), func(i int) bool { return g.cost[g.byCost[i]] >= target })
	lo, hi := i-1, i
	for lo >= 0 && used[g.byCost[lo]] {
		lo--
	}
	for hi < len(g.byCost) && used[g.byCost[hi]] {
		hi++
	}
	switch {
	case lo < 0:
		return g.byCost[hi]
	case hi >= len(g.byCost) || target-g.cost[g.byCost[lo]] <= g.cost[g.byCost[hi]]-target:
		return g.byCost[lo]
	default:
		return g.byCost[hi]
	}
}

// updatesIn is the number of writes a phase of length dur carries.
func updatesIn(dur time.Duration) int { return int(math.Ceil(dur.Seconds() * updateRate)) }

// rowsOK checks one reply: one row per node, NumClasses wide, all finite.
func (g *loadGen) rowsOK(rows [][]float32, want int) bool {
	if len(rows) != want {
		return false
	}
	for _, row := range rows {
		if len(row) != g.numClasses {
			return false
		}
		for _, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}

// sleepUntil parks the generator until t. time.Sleep overshoots short waits
// by about a millisecond on small boxes; the overshoot counts in the
// latencies (they run from the due time) and is reported on its own as
// serve.gen_late_ms_p99. Spinning instead would take a core from the server
// on a two-core box.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// phase offers predicts at rate for dur beside one write per target at
// updateRate, waits for every reply, and returns both record sets. Arrival
// times, nodes and written features are drawn before the clock starts.
// traceAt says which due times fall in traced blocks.
//
// The predicts are sent by a pool of clients goroutines that take the
// arrivals in schedule order, each sleeping until its request is due. When
// every client is waiting for a reply, the next request goes out late;
// latency runs from the due time, so such a stall still counts against
// every request it delays, and the lateness is reported. The pool keeps a
// saturated server from piling up one parked goroutine per request. One
// writer sends the updates in order.
func (g *loadGen) phase(rate float64, dur time.Duration, targets []int32, traceAt func(time.Duration) bool) (preds, upds []opRecord) {
	var predAt []time.Duration
	var predNodes [][]int32
	for at := time.Duration(0); ; {
		at += time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		nodes := make([]int32, nodesPerReq)
		for j := range nodes {
			nodes[j] = g.hot[g.zipf.Uint64()]
		}
		predAt = append(predAt, at)
		predNodes = append(predNodes, nodes)
	}
	updFeat := make([][]float32, len(targets))
	for i, v := range targets {
		updFeat[i] = make([]float32, g.mirror.Cols)
		for j := range updFeat[i] {
			updFeat[i][j] = float32(g.rng.NormFloat64())
		}
		copy(g.mirror.Row(int(v)), updFeat[i])
	}
	g.lastTargets = targets
	preds = make([]opRecord, len(predAt))
	upds = make([]opRecord, len(targets))

	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, v := range targets {
			at := time.Duration(float64(i) / updateRate * float64(time.Second))
			rec := &upds[i]
			rec.due, rec.traced = start.Add(at), traceAt(at)
			sleepUntil(rec.due)
			rec.sent = time.Now()
			_, rec.err = g.srv.Update(v, updFeat[i])
			rec.done = time.Now()
			if rec.traced {
				g.tr.add("serve.Server.Update", 0, -1, rec.sent, rec.done)
			}
		}
	}()
	var next atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(predAt) {
					return
				}
				rec := &preds[i]
				rec.due, rec.traced = start.Add(predAt[i]), traceAt(predAt[i])
				sleepUntil(rec.due)
				rec.sent = time.Now()
				rows, err := g.srv.Predict(predNodes[i])
				rec.done = time.Now()
				rec.err = err
				rec.bad = err == nil && !g.rowsOK(rows, len(predNodes[i]))
				if rec.traced {
					g.tr.add("serve.Server.Predict", 0, -1, rec.sent, rec.done)
				}
			}
		}()
	}
	wg.Wait()
	return preds, upds
}

// windowP99 splits records into windows of the given length by due time
// and returns the median over windows of each window's latency p99, a
// failed or shed request counting as over any limit. Writes stall the
// dispatcher for milliseconds each, so a rung's plain p99 would hinge on
// its one or two longest writes; the median over windows is the tail a
// typical part of the rung sees. It also returns the last window's p50,
// which rises when a backlog grows.
func windowP99(rs []opRecord, window time.Duration) (p99, lastP50 float64) {
	if len(rs) == 0 {
		return math.NaN(), math.NaN()
	}
	t0 := rs[0].due
	var windows [][]float64
	for _, r := range rs {
		w := int(r.due.Sub(t0) / window)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		ms := msOf(r.latency())
		if r.err != nil || r.bad {
			ms = math.Inf(1)
		}
		windows[w] = append(windows[w], ms)
	}
	var p99s []float64
	for _, w := range windows {
		if len(w) > 0 {
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	return median(p99s), median(windows[len(windows)-1])
}

// rungPasses reports whether one ladder rung met the limit: the median of
// its five windows' predict p99 within p99Limit, and the last window's p50
// too, so a backlog that grows through the rung fails it.
func rungPasses(preds []opRecord, rungDur time.Duration) bool {
	p99, lastP50 := windowP99(preds, rungDur/5)
	limit := msOf(p99Limit)
	return p99 <= limit && lastP50 <= limit
}

// serveResult is what the serving phase reports.
type serveResult struct {
	startups []time.Duration // engine start-up, one per set-up repetition
	ref      []opRecord      // predicts at the reference rate
	upds     []opRecord      // updates beside the reference rate
	maxRPS   float64
	rssMB    float64 // peak RSS before the load starts
	stats    serve.ServerStats
}

// serveLoad builds the engine setupReps times (keeping the last), offers the
// reference load for dur, climbs the rate ladder in a traced run, and
// finally checks sampled served rows against a fresh engine over the
// updated features.
func serveLoad(ds *datagen.Dataset, model *core.Model, seed uint64, dur time.Duration, tr *tracer, led *ledger) (*serveResult, error) {
	res := &serveResult{}
	var eng *serve.Engine
	for i := 0; i < setupReps; i++ {
		// Collect the previous engine first, so the repetitions do not stack
		// up in the peak RSS.
		eng = nil
		runtime.GC()
		id := tr.begin("serve.NewEngine", 0, -1)
		start := time.Now()
		e, err := serve.NewEngine(model, ds.G, ds.Features, ds.G.N/cacheDivisor)
		if err != nil {
			return nil, err
		}
		res.startups = append(res.startups, time.Since(start))
		tr.end(id)
		eng = e
	}
	srv := serve.NewServer(eng, serve.ServerConfig{})
	defer srv.Close()
	g := newLoadGen(srv, ds, seed, tr)
	res.rssMB = peakRSSMB()

	// Reference rate. A traced run traces every other second, so the
	// tracing overhead is a difference within one phase.
	traceAt := func(at time.Duration) bool { return tr != nil && int(at/time.Second)%2 == 1 }
	preds, upds := g.phase(refRate, dur, g.updateTargets(updatesIn(dur), updatesIn(time.Second)), traceAt)
	res.ref, res.upds = preds, upds
	for _, r := range preds {
		led.op(r.err == nil && !r.bad, "predict at the reference rate: err %v, bad rows %v", r.err, r.bad)
	}

	if tr != nil {
		res.maxRPS = g.maxRate(led)
		led.op(res.maxRPS > 0, "even %.0f predicts/s missed the %v p99 limit", ladderMin, p99Limit)
	}
	for _, r := range res.upds {
		led.op(r.err == nil, "update at the reference rate: %v", r.err)
	}

	st, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	res.stats = st

	// Served rows must equal a freshly built engine's over the updated
	// features, bit for bit: the sampled nodes include recently updated ones.
	fresh, err := serve.NewEngine(model, ds.G, g.mirror, ds.G.N/cacheDivisor)
	if err != nil {
		return nil, err
	}
	sample := make([]int32, 0, checkRows)
	sample = append(sample, g.lastTargets[:min(len(g.lastTargets), checkRows/2)]...)
	for len(sample) < checkRows {
		sample = append(sample, int32(g.rng.Intn(ds.G.N)))
	}
	got, err := srv.Predict(sample)
	if err != nil {
		return nil, err
	}
	want, err := fresh.Predict(sample)
	if err != nil {
		return nil, err
	}
	for i, v := range sample {
		led.op(bitEqual(got[i], want[i]), "served row of node %d differs from a fresh engine's", v)
	}
	return res, nil
}

// engineUpdateMS times Engine.UpdateFeature called directly, outside the
// server, on its own engine: the median over checkRows distinct nodes.
func engineUpdateMS(ds *datagen.Dataset, model *core.Model, seed uint64, tr *tracer) (float64, error) {
	eng, err := serve.NewEngine(model, ds.G, ds.Features, ds.G.N/cacheDivisor)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed0004)))
	feat := make([]float32, ds.FeatureDim())
	var ts []time.Duration
	for _, v := range rng.Perm(ds.G.N)[:checkRows] {
		for j := range feat {
			feat[j] = float32(rng.NormFloat64())
		}
		id := tr.begin("serve.Engine.UpdateFeature", 0, -1)
		start := time.Now()
		if _, err := eng.UpdateFeature(int32(v), feat); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start))
		tr.end(id)
	}
	return median(durationsMS(ts)), nil
}

// maxRate climbs the rate ladder and returns the highest rate whose rung
// passed. From ladderStart it doubles while
// rungs pass or halves while they fail until the knee is bracketed, then
// bisects the bracket geometrically. Every rung writes the same nodes, so
// rungs differ only in read rate. A rung probes capacity, so its sheds
// decide the rung and are counted in serve.shed rather than as failed
// operations.
func (g *loadGen) maxRate(led *ledger) float64 {
	rungTargets := g.updateTargets(updatesIn(rungDur), updatesIn(rungDur))
	never := func(time.Duration) bool { return false }
	rung := func(rate float64) bool {
		preds, upds := g.phase(rate, rungDur, rungTargets, never)
		for _, r := range upds {
			led.op(r.err == nil, "update at %.0f predicts/s: %v", rate, r.err)
		}
		for _, r := range preds {
			if r.bad || (r.err != nil && !errors.Is(r.err, serve.ErrOverloaded)) {
				led.op(false, "predict at %.0f/s: err %v, bad rows %v", rate, r.err, r.bad)
			}
		}
		return rungPasses(preds, rungDur)
	}
	lastPass, firstFail := 0.0, 0.0
	for rate := ladderStart; rate >= ladderMin && rate <= ladderMax; {
		if rung(rate) {
			lastPass = rate
			if firstFail > 0 {
				break
			}
			rate *= 2
		} else {
			firstFail = rate
			if lastPass > 0 {
				break
			}
			rate /= 2
		}
	}
	if lastPass > 0 && firstFail > 0 {
		for i := 0; i < bisectSteps; i++ {
			mid := math.Sqrt(lastPass * firstFail)
			if rung(mid) {
				lastPass = mid
			} else {
				firstFail = mid
			}
		}
	}
	return lastPass
}
