package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
)

// run sets up, trains and serves one workload, and returns the end-to-end
// metrics, or the per-layer metrics when tr is non-nil.
func run(wl workload, seed uint64, dur time.Duration, tr *tracer, led *ledger) (map[string]float64, error) {
	tb, phases, totals, err := setUp(wl, seed, tr)
	if err != nil {
		return nil, err
	}
	trn, err := train(tb, tr, led)
	var wire, payload int64
	for _, t := range tb.tcp {
		wire += t.WireBytesSent()
		payload += t.BytesSent()
	}
	tb.close()
	if err != nil {
		return nil, err
	}
	// Serving needs only the dataset and the trained weights. Copy the
	// weights out and drop the trainers (partitions, optimizer state,
	// evaluation models) so their heap does not stretch the serving phase's
	// garbage collections.
	trained := tb.ranks[0].Model
	model, err := core.NewModel(trained.Config, trained.InDim, trained.OutDim)
	if err != nil {
		return nil, err
	}
	model.CopyWeightsFrom(trained)
	tb.ranks = nil
	runtime.GC()
	sv, err := serveLoad(tb.ds, model, seed, dur, tr, led)
	if err != nil {
		return nil, err
	}

	v := map[string]float64{}
	if tr == nil {
		v["setup_s"] = median(seconds(totals)) + median(seconds(sv.startups))
		walls := epochMS(trn.epochs, func(r *epochRecord) float64 { return msOf(r.wall) })
		v["epoch_ms_p50"] = median(walls)
		v["epoch_ms_p90"] = quantile(walls, 0.9)
		v["time_to_acc_s"] = trn.timeToAcc.Seconds()
		v["test_acc"] = trn.testAcc
		v["halo_mb_per_epoch"] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
			return sumRanks(r, func(s core.RankStats) float64 { return float64(s.CommBytes) })
		}) / 1e6
		v["reduce_mb_per_epoch"] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
			return sumRanks(r, func(s core.RankStats) float64 { return float64(s.ReduceBytes) })
		}) / 1e6
		v["peak_rss_mb"] = sv.rssMB
		v["predict_ms_p50"] = median(latenciesMS(sv.ref, false))
		v["update_ms_p50"] = median(latenciesMS(sv.upds, false))
		v["ok_ratio"] = 1 - float64(led.failed)/float64(max(led.attempted, 1))
		report(wl, trn, sv)
		return v, nil
	}

	for _, name := range []string{"datagen.generate_s", "partition.metis_s", "core.topology_s", "comm.mesh_dial_s", "core.trainer_new_s"} {
		var xs []float64
		for _, p := range phases {
			xs = append(xs, p[name].Seconds())
		}
		v[name] = median(xs)
	}
	v["serve.engine_startup_s"] = median(seconds(sv.startups))
	pst, err := partition.ComputeStats(tb.ds.G, tb.parts, ranks)
	if err != nil {
		return nil, err
	}
	v["partition.edge_cut"] = float64(pst.EdgeCut)
	v["partition.boundary_nodes"] = float64(tb.topo.CommVolume())
	v["core.sampled_boundary"] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
		return sumRanks(r, func(s core.RankStats) float64 { return float64(s.SampledBd) })
	})
	slowest := func(f func(s core.RankStats) time.Duration) float64 {
		return median(epochMS(trn.epochs, func(r *epochRecord) float64 {
			return msOf(max(f(r.stats[0]), f(r.stats[1])))
		}))
	}
	v["core.sample_ms"] = slowest(func(s core.RankStats) time.Duration { return s.Sample })
	v["core.compute_ms"] = slowest(func(s core.RankStats) time.Duration { return s.Compute })
	v["core.reduce_ms"] = slowest(func(s core.RankStats) time.Duration { return s.Reduce })
	v["core.halo_exposed_ms"] = slowest(func(s core.RankStats) time.Duration { return s.CommExposed })
	v["core.halo_span_ms"] = slowest(func(s core.RankStats) time.Duration { return s.Comm })
	v["core.rank_skew"] = median(epochMS(trn.epochs, func(r *epochRecord) float64 {
		a, b := r.stats[0].Sample+r.stats[0].Compute, r.stats[1].Sample+r.stats[1].Compute
		return float64(max(a, b)) / float64(max(min(a, b), 1))
	}))
	var allocs, allocMB []float64
	for _, r := range trn.epochs {
		if r.traced {
			allocs = append(allocs, float64(r.allocs))
			allocMB = append(allocMB, float64(r.allocBytes)/1e6)
		}
	}
	v["core.allocs_per_epoch"] = median(allocs)
	v["core.alloc_mb_per_epoch"] = median(allocMB)
	v["core.eval_ms"] = median(durationsMS(trn.evals))
	var memMax int64
	for _, c := range tb.topo.MemoryCosts(model.LayerInputDims(), wl.p) {
		memMax = max(memMax, c)
	}
	v["core.memory_cost_mb"] = float64(memMax) / 1e6

	for l := 0; l < modelLayers; l++ {
		v[fmt.Sprintf("comm.halo_fwd_bytes.L%d", l)] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
			return float64(r.counts[0].Fwd[l] + r.counts[1].Fwd[l])
		})
		v[fmt.Sprintf("comm.halo_bwd_bytes.L%d", l)] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
			return float64(r.counts[0].Bwd[l] + r.counts[1].Bwd[l])
		})
	}
	v["comm.reduce_bytes"] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
		return float64(r.counts[0].Reduce + r.counts[1].Reduce)
	})
	v["comm.msgs_per_epoch"] = meanPerEpoch(trn.epochs, func(r *epochRecord) float64 {
		return float64(r.counts[0].Msgs + r.counts[1].Msgs)
	})
	v["comm.send_ms"] = median(epochMS(trn.epochs, func(r *epochRecord) float64 {
		return msOf(max(r.counts[0].SendTime, r.counts[1].SendTime))
	}))
	v["comm.recv_block_ms"] = median(epochMS(trn.epochs, func(r *epochRecord) float64 {
		return msOf(max(r.counts[0].RecvTime, r.counts[1].RecvTime))
	}))
	v["comm.wire_overhead"] = float64(wire) / float64(max(payload, 1))

	fwd, bwd, err := layerTimes(tb.ds, model, tr)
	if err != nil {
		return nil, err
	}
	for l := 0; l < modelLayers; l++ {
		v[fmt.Sprintf("nn.fwd_ms.L%d", l)] = fwd[l]
		v[fmt.Sprintf("nn.bwd_ms.L%d", l)] = bwd[l]
	}
	v["tensor.matmul_gflops"], v["tensor.spmm_gbs"] = kernelRates(tb.ds, tb.topo, model.LayerInputDims(), model.OutDim, tr)

	var service, late []float64
	for _, r := range sv.ref {
		service = append(service, msOf(r.done.Sub(r.sent)))
		late = append(late, msOf(r.sent.Sub(r.due)))
	}
	v["serve.predict_ms_p99"] = quantile(latenciesMS(sv.ref, false), 0.99)
	v["serve.update_ms_p95"] = quantile(latenciesMS(sv.upds, false), 0.95)
	v["serve.max_rps"] = sv.maxRPS
	v["serve.service_ms_p50"] = median(service)
	v["serve.gen_late_ms_p99"] = quantile(late, 0.99)
	st := sv.stats
	v["serve.cache_hit_ratio"] = float64(st.Hits) / float64(max(st.Hits+st.Misses, 1))
	v["serve.recomputed_rows_per_update"] = float64(st.Recomputed) / float64(max(st.Updates, 1))
	v["serve.coalesced_per_pass"] = float64(st.Batched) / float64(max(st.Batches, 1))
	v["serve.shed"] = float64(st.Shed)
	upd, err := engineUpdateMS(tb.ds, model, seed, tr)
	if err != nil {
		return nil, err
	}
	v["serve.engine_update_ms"] = upd

	v["core.epoch_self_ms"] = func() float64 {
		nt := selfTimes(tr.spans)["core.RankTrainer.TrainEpoch"]
		return float64(nt.SelfNS) / float64(max(nt.Count, 1)) / 1e6
	}()
	var on, off []float64
	for _, r := range trn.epochs {
		if r.traced {
			on = append(on, msOf(r.wall))
		} else {
			off = append(off, msOf(r.wall))
		}
	}
	v["trace.epoch_overhead_ms"] = median(on) - median(off)
	v["trace.predict_overhead_ms"] = median(latenciesMS(sv.ref, true)) - median(latenciesMS(sv.ref, false))
	return v, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// epochMS maps every epoch through f.
func epochMS(es []epochRecord, f func(*epochRecord) float64) []float64 {
	out := make([]float64, len(es))
	for i := range es {
		out[i] = f(&es[i])
	}
	return out
}

func meanPerEpoch(es []epochRecord, f func(*epochRecord) float64) float64 {
	var s float64
	for i := range es {
		s += f(&es[i])
	}
	return s / float64(len(es))
}

func sumRanks(r *epochRecord, f func(core.RankStats) float64) float64 {
	var s float64
	for _, st := range r.stats {
		s += f(st)
	}
	return s
}

// latenciesMS returns the due-to-reply latencies of the records whose traced
// flag equals traced.
func latenciesMS(rs []opRecord, traced bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.traced == traced {
			out = append(out, msOf(r.latency()))
		}
	}
	return out
}
