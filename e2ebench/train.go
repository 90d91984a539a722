package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// The training configuration every workload shares.
const (
	datasetScale = 8 // RedditSim(8): 20,000 nodes, ~230k edges, 48 features
	ranks        = 2 // ranks, threads and connections stay within 2 cores
	modelLayers  = 3
	modelHidden  = 64
	targetAcc    = 0.95 // full-graph validation accuracy time_to_acc_s waits for
	minEpochs    = 50   // epochs per run behind the epoch-time quantiles
	maxEpochs    = 150  // a run that has not reached targetAcc by now fails
	setupReps    = 3    // set-ups per run; setup_s is their median
)

// The modeled link every workload trains over: it stands in for the
// paper's multi-machine regime, where boundary traffic costs real time.
var linkModel = comm.LinkModel{BytesPerSecond: 50e6, Latency: 200 * time.Microsecond}

func modelConfig(seed uint64) core.ModelConfig {
	return core.ModelConfig{Arch: core.ArchSAGE, Layers: modelLayers, Hidden: modelHidden,
		Dropout: 0.2, LR: 0.01, Seed: seed ^ 0x5eed0001}
}

// testbed is one set-up training world: the dataset, its METIS partition,
// the k-rank mesh and one RankTrainer per rank.
type testbed struct {
	ds     *datagen.Dataset
	parts  []int32
	topo   *core.Topology
	tcp    []*comm.TCPTransport
	ctr    []*countingTransport
	group  *comm.Group
	ranks  []*core.RankTrainer
	phases map[string]time.Duration
}

func (tb *testbed) close() {
	if tb.group != nil {
		tb.group.Close()
	}
}

// timed runs fn as one set-up phase: it is timed into phases under name and
// recorded as a span of the given parent.
func timed(tr *tracer, parent int, phases map[string]time.Duration, name, span string, fn func() error) error {
	id := tr.begin(span, parent, -1)
	start := time.Now()
	err := fn()
	phases[name] = time.Since(start)
	tr.end(id)
	return err
}

// setUpOnce builds a testbed from the seed.
func setUpOnce(wl workload, seed uint64, tr *tracer) (*testbed, error) {
	tb := &testbed{phases: map[string]time.Duration{}}
	root := tr.begin("setup", 0, -1)
	defer tr.end(root)
	err := timed(tr, root, tb.phases, "datagen.generate_s", "datagen.Generate", func() (err error) {
		tb.ds, err = datagen.Generate(datagen.RedditSim(datasetScale, seed))
		return err
	})
	if err == nil {
		err = timed(tr, root, tb.phases, "partition.metis_s", "partition.Metis.Partition", func() (err error) {
			tb.parts, err = (&partition.Metis{Seed: seed}).Partition(tb.ds.G, ranks)
			return err
		})
	}
	if err == nil {
		err = timed(tr, root, tb.phases, "core.topology_s", "core.BuildTopology", func() (err error) {
			tb.topo, err = core.BuildTopology(tb.ds.G, tb.parts, ranks)
			return err
		})
	}
	if err == nil {
		err = timed(tr, root, tb.phases, "comm.mesh_dial_s", "comm.DialTCP", func() (err error) {
			tb.tcp, err = dialMesh(ranks)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	ts := make([]comm.Transport, ranks)
	for r, t := range tb.tcp {
		ts[r] = t
	}
	tb.group, tb.ctr = wrapCounting(comm.WithLinkModel(comm.NewGroup(ts), linkModel))
	cfg := core.ParallelConfig{Model: modelConfig(seed), P: wl.p, SampleSeed: seed ^ 0x5eed0002}
	err = timed(tr, root, tb.phases, "core.trainer_new_s", "core.NewRankTrainer", func() error {
		for r := 0; r < ranks; r++ {
			rt, err := core.NewRankTrainer(tb.ds, tb.topo, cfg, r)
			if err != nil {
				return err
			}
			tb.ranks = append(tb.ranks, rt)
		}
		return nil
	})
	if err != nil {
		tb.close()
		return nil, err
	}
	return tb, nil
}

// dialMesh connects k TCP endpoints over 127.0.0.1, one goroutine per rank,
// rank 0 serving the rendezvous.
func dialMesh(k int) ([]*comm.TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts := make([]*comm.TCPTransport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := comm.TCPConfig{Rank: r, World: k, Rendezvous: ln.Addr().String(), Timeout: 30 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			ts[r], errs[r] = comm.DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range ts {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	return ts, nil
}

// setUp builds setupReps testbeds and keeps the last. It returns the
// per-phase and whole set-up times of every repetition.
func setUp(wl workload, seed uint64, tr *tracer) (*testbed, []map[string]time.Duration, []time.Duration, error) {
	var tb *testbed
	var phases []map[string]time.Duration
	var totals []time.Duration
	for i := 0; i < setupReps; i++ {
		if tb != nil {
			tb.close()
			tb = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if tb, err = setUpOnce(wl, seed, tr); err != nil {
			return nil, nil, nil, err
		}
		totals = append(totals, time.Since(start))
		phases = append(phases, tb.phases)
	}
	return tb, phases, totals, nil
}

// epochRecord is one training epoch as the benchmark saw it.
type epochRecord struct {
	wall       time.Duration
	stats      [ranks]core.RankStats
	counts     [ranks]msgCounts
	traced     bool
	allocs     uint64 // heap objects allocated during the epoch (traced epochs)
	allocBytes uint64
}

// trainResult is what training reports.
type trainResult struct {
	epochs       []epochRecord
	timeToAcc    time.Duration
	reachedEpoch int
	testAcc      float64
	evals        []time.Duration
}

// train runs epochs until the validation accuracy reaches targetAcc and at
// least minEpochs ran. While the target is not reached, every epoch is
// followed by an exact full-graph evaluation, so time_to_acc_s counts the
// evaluations. In a traced run every other epoch is traced, which makes the
// tracing overhead a difference between epochs of one run.
func train(tb *testbed, tr *tracer, led *ledger) (*trainResult, error) {
	res := &trainResult{}
	var errs [ranks]error
	start := time.Now()
	for e := 0; e < maxEpochs; e++ {
		rec := epochRecord{traced: tr != nil && e%2 == 1}
		var t *tracer
		if rec.traced {
			t = tr
		}
		var ms0, ms1 runtime.MemStats
		if rec.traced {
			runtime.ReadMemStats(&ms0)
		}
		epochSpan := t.begin("core.TrainEpoch", 0, -1)
		rankSpans := [ranks]int{}
		t0 := time.Now()
		tb.group.Run(func(w *comm.Worker) {
			r := w.Rank()
			rankSpans[r] = t.begin("core.RankTrainer.TrainEpoch", epochSpan, r)
			tb.ctr[r].traceUnder(t, rankSpans[r])
			rec.stats[r], errs[r] = tb.ranks[r].TrainEpoch(w)
			t.end(rankSpans[r])
		})
		rec.wall = time.Since(t0)
		t.end(epochSpan)
		if rec.traced {
			runtime.ReadMemStats(&ms1)
			rec.allocs = ms1.Mallocs - ms0.Mallocs
			rec.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		}
		for r := 0; r < ranks; r++ {
			rec.counts[r] = tb.ctr[r].take()
			st, c := rec.stats[r], rec.counts[r]
			led.op(errs[r] == nil, "epoch %d rank %d: %v", e, r, errs[r])
			led.op(!math.IsNaN(st.Loss) && !math.IsInf(st.Loss, 0), "epoch %d rank %d: loss %v", e, r, st.Loss)
			led.op(c.halo() == st.CommBytes, "epoch %d rank %d: decorator saw %d halo bytes, trainer reports %d", e, r, c.halo(), st.CommBytes)
			led.op(c.Reduce == st.ReduceBytes, "epoch %d rank %d: decorator saw %d reduce bytes, trainer reports %d", e, r, c.Reduce, st.ReduceBytes)
		}
		if err := errors.Join(errs[:]...); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		res.epochs = append(res.epochs, rec)

		if res.reachedEpoch == 0 {
			id := t.begin("core.RankTrainer.Evaluate", 0, -1)
			es := time.Now()
			acc := tb.ranks[0].Evaluate(tb.ds.ValMask)
			res.evals = append(res.evals, time.Since(es))
			t.end(id)
			if acc >= targetAcc {
				res.timeToAcc = time.Since(start)
				res.reachedEpoch = e + 1
				res.testAcc = tb.ranks[0].Evaluate(tb.ds.TestMask)
			}
		}
		if res.reachedEpoch > 0 && e+1 >= minEpochs {
			break
		}
	}
	led.op(res.reachedEpoch > 0, "validation accuracy did not reach %.2f in %d epochs", targetAcc, maxEpochs)
	ref := tb.ranks[0].Model.ParamVector()
	for r := 1; r < ranks; r++ {
		led.op(bitEqual(ref, tb.ranks[r].Model.ParamVector()), "rank %d parameters differ from rank 0", r)
	}
	return res, nil
}

// bitEqual reports whether a and b hold the same float32 bit patterns.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
