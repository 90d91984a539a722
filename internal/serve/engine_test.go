package serve

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/tensor"
)

func testDataset(t testing.TB, seed uint64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "serve-test", Nodes: 400, Communities: 5, AvgDegree: 7,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 10,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainedModel trains a FullTrainer for a few epochs (so the weights are not
// an init pattern) and returns it plus a snapshot of its exact inference
// logits — taken before the engine touches the model's layer state.
func trainedModel(t testing.TB, ds *datagen.Dataset, arch core.Arch, layers int) (*core.FullTrainer, *tensor.Matrix) {
	t.Helper()
	cfg := core.ModelConfig{Arch: arch, Layers: layers, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 7}
	ft, err := core.NewFullTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		ft.TrainEpoch()
	}
	logits := ft.Forward(false)
	ref := tensor.New(logits.Rows, logits.Cols)
	ref.CopyFrom(logits)
	return ft, ref
}

func rowsEqual(a []float32, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPredictMatchesFullTrainer is the serving bit-identity contract: every
// logit row the engine serves — cache miss or hit, any batch split or
// request order — equals the FullTrainer.Forward(false) row for the same
// weights, bit for bit.
func TestPredictMatchesFullTrainer(t *testing.T) {
	for _, tc := range []struct {
		arch   core.Arch
		layers int
	}{
		{core.ArchSAGE, 2},
		{core.ArchSAGE, 3},
		{core.ArchGAT, 2},
	} {
		t.Run(string(tc.arch)+"-"+string(rune('0'+tc.layers))+"layer", func(t *testing.T) {
			ds := testDataset(t, 11)
			ft, ref := trainedModel(t, ds, tc.arch, tc.layers)
			eng, err := NewEngine(ft.Model, ds.G, ds.Features, 64)
			if err != nil {
				t.Fatal(err)
			}
			// Uneven batch sizes, repeats within a batch, and re-requests of
			// cached rows all must produce the reference bits.
			var nodes []int32
			for v := 0; v < ds.G.N; v++ {
				nodes = append(nodes, int32(v))
			}
			// A batch of never-requested nodes in descending order: more
			// misses than the kernels run inline, so the engine must sort
			// them into the ascending list the chunk-split claims need.
			var desc []int32
			for v := ds.G.N - 1; v >= 200; v-- {
				desc = append(desc, int32(v))
			}
			for _, batch := range [][]int32{nodes[:7], nodes[5:100], {3, 3, 9}, desc, nodes} {
				rows, err := eng.Predict(batch)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range batch {
					if !rowsEqual(rows[i], ref.Row(int(v))) {
						t.Fatalf("node %d: served logits %v != reference %v", v, rows[i], ref.Row(int(v)))
					}
				}
			}
			st := eng.Stats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("exercise should produce both hits and misses: %+v", st)
			}
		})
	}
}

// TestEngineFromHydratedCheckpoint pins the full serving path: trainer
// checkpoint on disk → weights-only hydration → engine → bit-identical
// logits. This is exactly what cmd/bnsserve does at startup.
func TestEngineFromHydratedCheckpoint(t *testing.T) {
	ds := testDataset(t, 12)
	ft, ref := trainedModel(t, ds, core.ArchSAGE, 2)
	path := filepath.Join(t.TempDir(), "m.bnsc")
	if err := core.SaveCheckpointFile(path, ft.Model); err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(m, ds.G, ds.Features, 32)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []int32
	for v := 0; v < ds.G.N; v++ {
		nodes = append(nodes, int32(v))
	}
	rows, err := eng.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range nodes {
		if !rowsEqual(rows[i], ref.Row(int(v))) {
			t.Fatalf("node %d: hydrated-checkpoint logits differ from the training model's", v)
		}
	}
}

// TestCacheCountersAndEviction: the LRU must bound itself at capacity, serve
// repeats from cache, and recompute evicted rows correctly.
func TestCacheCountersAndEviction(t *testing.T) {
	ds := testDataset(t, 13)
	ft, ref := trainedModel(t, ds, core.ArchSAGE, 2)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict([]int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.CacheLen != 2 || st.CacheCap != 2 {
		t.Fatalf("after first batch: %+v", st)
	}
	if _, err := eng.Predict([]int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if st = eng.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("repeat batch should be all hits: %+v", st)
	}
	// Node 2 evicts the LRU entry (node 0); re-requesting 0 is a miss whose
	// recompute must still produce the reference bits.
	if _, err := eng.Predict([]int32{2}); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Predict([]int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(rows[0], ref.Row(0)) {
		t.Fatal("re-computed evicted row differs from reference")
	}
	if st = eng.Stats(); st.Misses != 4 || st.CacheLen != 2 {
		t.Fatalf("after eviction cycle: %+v", st)
	}
	// Out-of-range requests are rejected, not served.
	if _, err := eng.Predict([]int32{int32(ds.G.N)}); err == nil {
		t.Fatal("predict accepted an out-of-range node")
	}
	if _, err := eng.Predict([]int32{-1}); err == nil {
		t.Fatal("predict accepted a negative node")
	}
}

// TestUpdateFeatureMatchesFullRecompute is the incremental-update
// correctness contract: after an update, every served logit row — affected
// or not — must equal a from-scratch full-graph pass over the modified
// features, bit for bit. Covers SAGE (2- and 3-layer receptive fields) and
// GAT (attention re-prep on the changed rows).
func TestUpdateFeatureMatchesFullRecompute(t *testing.T) {
	for _, tc := range []struct {
		arch   core.Arch
		layers int
	}{
		{core.ArchSAGE, 2},
		{core.ArchSAGE, 3},
		{core.ArchGAT, 2},
	} {
		t.Run(string(tc.arch)+"-"+string(rune('0'+tc.layers))+"layer", func(t *testing.T) {
			ds := testDataset(t, 14)
			ft, _ := trainedModel(t, ds, tc.arch, tc.layers)
			eng, err := NewEngine(ft.Model, ds.G, ds.Features, 1024)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []int32
			for v := 0; v < ds.G.N; v++ {
				nodes = append(nodes, int32(v))
			}
			// Warm the whole cache so the update's eviction is load-bearing:
			// stale cached rows would survive a missing eviction and fail below.
			if _, err := eng.Predict(nodes); err != nil {
				t.Fatal(err)
			}

			// Mutate two nodes' features (one hub-ish, one arbitrary).
			newFeat := make([]float32, ds.FeatureDim())
			for j := range newFeat {
				newFeat[j] = float32(j)*0.25 - 1
			}
			touched, err := eng.UpdateFeature(5, newFeat)
			if err != nil {
				t.Fatal(err)
			}
			if touched == 0 {
				t.Fatal("update re-embedded nothing")
			}
			neg := make([]float32, ds.FeatureDim())
			for j := range neg {
				neg[j] = -newFeat[j]
			}
			if _, err := eng.UpdateFeature(200, neg); err != nil {
				t.Fatal(err)
			}

			// From-scratch reference over the modified features: a fresh
			// dataset (same seed), mutated the same way, same weights.
			ds2 := testDataset(t, 14)
			copy(ds2.Features.Row(5), newFeat)
			copy(ds2.Features.Row(200), neg)
			cfg := ft.Model.Config
			ft2, err := core.NewFullTrainer(ds2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ft2.Model.CopyWeightsFrom(ft.Model)
			ref := ft2.Forward(false)

			rows, err := eng.Predict(nodes)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range nodes {
				if !rowsEqual(rows[i], ref.Row(int(v))) {
					t.Fatalf("node %d after update: served logits differ from full recompute", v)
				}
			}
			st := eng.Stats()
			if st.Updates != 2 || st.Recomputed == 0 || st.Evicted == 0 {
				t.Fatalf("update stats: %+v", st)
			}
			// The whole point: an update must NOT have recomputed the graph.
			if int(st.Recomputed) >= ds.G.N {
				t.Fatalf("update recomputed %d hidden rows on a %d-node graph — not incremental", st.Recomputed, ds.G.N)
			}

			// Bad updates are rejected without touching state.
			if _, err := eng.UpdateFeature(int32(ds.G.N), newFeat); err == nil {
				t.Fatal("update accepted an out-of-range node")
			}
			if _, err := eng.UpdateFeature(0, newFeat[:1]); err == nil {
				t.Fatal("update accepted a wrong-width feature row")
			}
		})
	}
}
