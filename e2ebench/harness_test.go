package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestQuantileInterpolatesBetweenClosestRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}, {0.25, 1.75},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty input: got %v, want NaN", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "epoch", Start: 0, End: 100},
		// Overlapping children cover [10,40) once; the last one is
		// clipped to the parent's end.
		{ID: 2, Parent: 1, Name: "send", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "send", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "recv", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Name: "wire", Start: 12, End: 18},
		{ID: 6, Name: "setup", Start: 200, End: 250},
	}
	st := selfTimes(spans)
	want := map[string]nameTimes{
		"epoch": {Count: 1, TotalNS: 100, SelfNS: 60},
		"send":  {Count: 2, TotalNS: 40, SelfNS: 34},
		"recv":  {Count: 1, TotalNS: 30, SelfNS: 30},
		"wire":  {Count: 1, TotalNS: 6, SelfNS: 6},
		"setup": {Count: 1, TotalNS: 50, SelfNS: 50},
	}
	for name, w := range want {
		if st[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, st[name], w)
		}
	}
}

func TestTracerRecordsParentsAndNilTracerIsInert(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, -1); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.end(0)
	off.add("x", 0, -1, off0(), off0())

	tr := newTracer()
	root := tr.begin("root", 0, -1)
	child := tr.begin("child", root, 1)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Track != 1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestCountingTransportClassifiesBytesByTag(t *testing.T) {
	g, cs := wrapCounting(comm.New(2, 0))
	defer g.Close()
	reduce := make([][]float32, 2)
	g.Run(func(w *comm.Worker) {
		if w.Rank() == 0 {
			w.SendI32(1, tagPositions, make([]int32, 3))
			w.SendF32(1, tagForward+0, make([]float32, 5))
			w.ISendF32(1, tagBackward+1, make([]float32, 7))
		} else {
			w.RecvI32(0, tagPositions)
			w.RecvF32(0, tagForward+0)
			w.RecvF32(0, tagBackward+1)
		}
		reduce[w.Rank()] = []float32{1, 2, 3, 4, 5, 6, 7, 8}
		w.AllReduceSum(reduce[w.Rank()], tagReduce)
	})
	c0, c1 := cs[0].take(), cs[1].take()
	if c0.Positions != 12 || c0.Fwd[0] != 20 || c0.Bwd[1] != 28 || c0.halo() != 48 {
		t.Errorf("rank 0 classes: %+v", c0)
	}
	// A two-rank ring sends half the vector in each of its two steps.
	if c0.Reduce != 32 || c1.Reduce != 32 || c1.halo() != 0 || c1.Positions != 0 {
		t.Errorf("reduce bytes %d/%d, rank 1 %+v", c0.Reduce, c1.Reduce, c1)
	}
	if c0.Msgs != 5 || c1.Msgs != 2 {
		t.Errorf("messages %d/%d, want 5/2", c0.Msgs, c1.Msgs)
	}
	for r, c := range []msgCounts{c0, c1} {
		if sum := c.Positions + c.halo() + c.Reduce + c.Other; sum != g.BytesSent(r) {
			t.Errorf("rank %d: classes sum to %d bytes, transport counted %d", r, sum, g.BytesSent(r))
		}
	}
	if c := cs[0].take(); c.Msgs != 0 || c.halo() != 0 {
		t.Errorf("take did not reset: %+v", c)
	}
}

func TestDecoratorBytesEqualTrainerAccounting(t *testing.T) {
	ds, err := datagen.Generate(datagen.RedditSim(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 3}).Partition(ds.G, ranks)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, ranks)
	if err != nil {
		t.Fatal(err)
	}
	g, cs := wrapCounting(comm.New(ranks, 0))
	defer g.Close()
	cfg := core.ParallelConfig{Model: modelConfig(3), P: 0.5, SampleSeed: 9}
	var rts []*core.RankTrainer
	for r := 0; r < ranks; r++ {
		rt, err := core.NewRankTrainer(ds, topo, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	for e := 0; e < 3; e++ {
		var st [ranks]core.RankStats
		var errs [ranks]error
		g.Run(func(w *comm.Worker) { st[w.Rank()], errs[w.Rank()] = rts[w.Rank()].TrainEpoch(w) })
		for r := 0; r < ranks; r++ {
			if errs[r] != nil {
				t.Fatal(errs[r])
			}
			c := cs[r].take()
			if c.halo() != st[r].CommBytes || c.Reduce != st[r].ReduceBytes || c.Other != 0 {
				t.Errorf("epoch %d rank %d: decorator halo %d reduce %d other %d, trainer %d/%d",
					e, r, c.halo(), c.Reduce, c.Other, st[r].CommBytes, st[r].ReduceBytes)
			}
			if c.halo() == 0 || c.Positions == 0 {
				t.Errorf("epoch %d rank %d: no halo traffic seen: %+v", e, r, c)
			}
		}
	}
}

func TestWindowP99TakesTheMedianWindow(t *testing.T) {
	base := off0()
	// Five one-second windows of 100 requests; latency in ms per window.
	mk := func(perWindow ...float64) []opRecord {
		var rs []opRecord
		for w, ms := range perWindow {
			for i := 0; i < 100; i++ {
				due := base.Add(time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond)
				rs = append(rs, opRecord{due: due, sent: due, done: due.Add(msDur(ms))})
			}
		}
		return rs
	}
	p99, last := windowP99(mk(1, 2, 900, 3, 4), time.Second)
	if p99 != 3 || last != 4 {
		t.Errorf("one slow window: p99 %v, last p50 %v; want 3, 4", p99, last)
	}
	if p99, _ := windowP99(mk(1, 900, 900, 900, 4), time.Second); p99 != 900 {
		t.Errorf("three slow windows: p99 %v, want 900", p99)
	}
	// Two failed requests in a window of 100 put its p99 over any limit.
	rs := mk(1, 1, 1, 1, 1)
	for _, w := range []int{0, 1, 2} {
		rs[100*w].err, rs[100*w+1].err = os.ErrDeadlineExceeded, os.ErrDeadlineExceeded
	}
	if p99, _ := windowP99(rs, time.Second); !math.IsInf(p99, 1) {
		t.Errorf("failed requests in three windows: p99 %v, want +Inf", p99)
	}
	if p99, _ := windowP99(nil, time.Second); !math.IsNaN(p99) {
		t.Errorf("no requests: p99 %v, want NaN", p99)
	}

	if !rungPasses(mk(1, 2, 3, 4, 5), 5*time.Second) {
		t.Error("a fast rung failed")
	}
	if rungPasses(mk(1, 2, 3, 4, 900), 5*time.Second) {
		t.Error("a rung whose backlog grew into its last window passed")
	}
	if rungPasses(mk(900, 900, 900, 4, 5), 5*time.Second) {
		t.Error("a rung with mostly slow windows passed")
	}
	if rungPasses(nil, time.Second) {
		t.Error("an empty rung passed")
	}
}

// TestContractMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] vs %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func off0() time.Time { return time.Unix(0, 0) }

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func TestUpdateTargetsFollowTheCostProfileInEveryGroup(t *testing.T) {
	g := &loadGen{rng: rand.New(rand.NewSource(1))}
	for v := int32(0); v < 1000; v++ {
		g.byCost = append(g.byCost, v)
		g.cost = append(g.cost, 100*int64(v))
	}
	out := g.updateTargets(120, 30)
	seen := map[int32]bool{}
	var costs []float64
	for w := 0; w < 4; w++ {
		lo, hi := int64(math.MaxInt64), int64(0)
		for _, v := range out[30*w : 30*(w+1)] {
			if seen[v] {
				t.Fatalf("node %d written twice", v)
			}
			seen[v] = true
			lo, hi = min(lo, g.cost[v]), max(hi, g.cost[v])
			costs = append(costs, float64(g.cost[v]))
		}
		// Every second's writes reach from the profile's cheap end to its
		// dear end.
		if lo > writeCostMedian/3 || hi < 2*writeCostMedian {
			t.Errorf("group %d spans costs [%d, %d]", w, lo, hi)
		}
	}
	if m := median(costs); math.Abs(m-writeCostMedian) > 0.05*writeCostMedian {
		t.Errorf("median write cost %v, profile median %v", m, writeCostMedian)
	}
}

func TestWriteCostsCountTheTwoHopDegreeVolume(t *testing.T) {
	// A path 0-1-2-3-4: a write to 0 recomputes rows {0,1} and then
	// {0,1,2}, whose degrees sum to 1+2+2.
	g := &graph.Graph{N: 5, Indptr: []int64{0, 1, 3, 5, 7, 8}, Indices: []int32{1, 0, 2, 1, 3, 2, 4, 3}}
	want := []int64{5, 7, 8, 7, 5}
	got := writeCosts(g)
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("cost of node %d: %d, want %d", v, got[v], want[v])
		}
	}
}
