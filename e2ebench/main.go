// Command e2ebench is the repository's end-to-end benchmark. One run sets
// up a workload, trains BNS-GCN partition-parallel over a loopback TCP mesh
// until full-graph validation accuracy reaches 0.95, serves the trained
// model under an open-loop mixed load, checks every output, and prints one
// JSON result line. BENCHMARK.json at the repository root names the
// workloads and metrics; run it from the root with
//
//	bash e2ebench/run.sh --workload bns-link --seed 1 --seconds 12 --trace 0
//
// Every workload reports every end-to-end metric, so every run trains the
// model it then serves. Both workloads train over a modeled 50 MB/s, 200µs
// link and differ only in the sampling rate p, so they differ in what
// dominates the epoch:
//
//   - bns-link: BNS at p=0.1. The kernels (tensor, nn) dominate the epoch.
//   - vanilla-link: p=1, the paper's baseline: ten times the halo bytes, so
//     the exchange (comm and the overlap engine) dominates.
//
// The serving load runs for --seconds at a reference rate: Poisson predict
// arrivals of Zipf-skewed nodes beside a fixed-rate stream of feature
// writes (serve.go). --seed generates every input: the graph, the model
// initialization, the sampling streams and the load.
//
// --trace 1 makes a separate traced run. It times the benchmark's own calls
// into each module (datagen, partition, core, comm, nn, tensor, serve),
// climbs a rate ladder for the serving capacity, keeps the spans in memory,
// writes them with their self times to .bench_build/e2ebench/trace/, and
// prints the per-layer metrics. Nothing inside the program is instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// Set at link time by run.sh.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	p    float64 // BNS boundary sampling rate; 1 is vanilla
}

var workloads = []workload{
	{name: "bns-link", p: 0.1},
	{name: "vanilla-link", p: 1},
}

// metricDef names one metric and its unit. The lists below are the
// contract BENCHMARK.json describes; a run prints exactly one of them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"epoch_ms_p50", "ms"},
	{"epoch_ms_p90", "ms"},
	{"time_to_acc_s", "s"},
	{"test_acc", "ratio"},
	{"halo_mb_per_epoch", "MB"},
	{"reduce_mb_per_epoch", "MB"},
	{"peak_rss_mb", "MB"},
	{"predict_ms_p50", "ms"},
	{"update_ms_p50", "ms"},
	{"ok_ratio", "ratio"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"datagen.generate_s", "s"},
		{"partition.metis_s", "s"},
		{"core.topology_s", "s"},
		{"comm.mesh_dial_s", "s"},
		{"core.trainer_new_s", "s"},
		{"serve.engine_startup_s", "s"},
		{"partition.edge_cut", "count"},
		{"partition.boundary_nodes", "count"},
		{"core.sampled_boundary", "count"},
		{"core.sample_ms", "ms"},
		{"core.compute_ms", "ms"},
		{"core.reduce_ms", "ms"},
		{"core.halo_exposed_ms", "ms"},
		{"core.halo_span_ms", "ms"},
		{"core.rank_skew", "ratio"},
		{"core.allocs_per_epoch", "count"},
		{"core.alloc_mb_per_epoch", "MB"},
		{"core.eval_ms", "ms"},
		{"core.memory_cost_mb", "MB"},
		{"core.epoch_self_ms", "ms"},
	}
	for l := 0; l < modelLayers; l++ {
		defs = append(defs, metricDef{fmt.Sprintf("comm.halo_fwd_bytes.L%d", l), "B"})
	}
	for l := 0; l < modelLayers; l++ {
		defs = append(defs, metricDef{fmt.Sprintf("comm.halo_bwd_bytes.L%d", l), "B"})
	}
	defs = append(defs,
		metricDef{"comm.reduce_bytes", "B"},
		metricDef{"comm.msgs_per_epoch", "count"},
		metricDef{"comm.send_ms", "ms"},
		metricDef{"comm.recv_block_ms", "ms"},
		metricDef{"comm.wire_overhead", "ratio"},
	)
	for l := 0; l < modelLayers; l++ {
		defs = append(defs, metricDef{fmt.Sprintf("nn.fwd_ms.L%d", l), "ms"})
	}
	for l := 0; l < modelLayers; l++ {
		defs = append(defs, metricDef{fmt.Sprintf("nn.bwd_ms.L%d", l), "ms"})
	}
	return append(defs,
		metricDef{"tensor.matmul_gflops", "GFLOP/s"},
		metricDef{"tensor.spmm_gbs", "GB/s"},
		metricDef{"serve.predict_ms_p99", "ms"},
		metricDef{"serve.update_ms_p95", "ms"},
		metricDef{"serve.max_rps", "1/s"},
		metricDef{"serve.service_ms_p50", "ms"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.engine_update_ms", "ms"},
		metricDef{"serve.recomputed_rows_per_update", "count"},
		metricDef{"serve.coalesced_per_pass", "count"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.gen_late_ms_p99", "ms"},
		metricDef{"trace.epoch_overhead_ms", "ms"},
		metricDef{"trace.predict_overhead_ms", "ms"},
	)
}()

// ledger counts the run's operations — epochs, requests, updates and output
// checks — and the ones that failed. It is only touched from the driver
// goroutine; request goroutines report through their records.
type ledger struct {
	attempted, failed int64
	shown             int
}

// op records one operation; a failure's reason goes to stderr (the first
// few of them, so a broken run stays readable).
func (l *ledger) op(ok bool, format string, args ...any) {
	l.attempted++
	if ok {
		return
	}
	l.failed++
	if l.shown < 10 {
		l.shown++
		fmt.Fprintf(os.Stderr, "e2ebench: FAILED: "+format+"\n", args...)
	}
}

// provenance identifies the code and the machine a result came from.
type provenance struct {
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOAMD64      string `json:"goamd64"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	AVX2         bool   `json:"avx2"`
	AVX512F      bool   `json:"avx512f"`
}

func newProvenance(wl workload, seed uint64, seconds int, traced bool) provenance {
	p := provenance{
		Commit: commit, SourceDigest: sourceDigest,
		Workload: wl.name, Seed: seed, Seconds: seconds, Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64: "unknown", GoVersion: runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				p.GOAMD64 = s.Value
			}
		}
	}
	p.CPUModel, p.AVX2, p.AVX512F = cpuInfo()
	return p
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult attaches units to values and checks that the run produced
// exactly the metrics of defs, each a finite number.
func buildResult(led *ledger, defs []metricDef, values map[string]float64) (result, error) {
	res := result{Attempted: led.attempted, Failed: led.failed, Metrics: map[string]metricValue{}}
	res.Correct = led.failed == 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("metrics outside the contract: %v", extra)
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func main() {
	name := flag.String("workload", "", "workload to run: bns-link or vanilla-link")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 12, "length of the reference-rate serving load in seconds")
	trace := flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	traced := *trace == 1
	prov := newProvenance(*wl, *seed, *seconds, traced)
	if err := json.NewEncoder(os.Stdout).Encode(map[string]provenance{"provenance": prov}); err != nil {
		os.Exit(1)
	}

	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer()
		defs = perLayer
	}
	led := &ledger{}
	values, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, tr, led)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	res, err := buildResult(led, defs, values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "e2ebench", "trace", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err := tr.write(path, prov); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "e2ebench: wrote %s\n", path)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}
