package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the pipelined epoch engine: Algorithm 1's loop body from one
// partition's view, executed as a per-layer stage schedule instead of the
// old strictly serialized sample → exchange → compute phases.
//
// Every layer pass runs in compute chunks over a per-epoch row partition
// (LocalPartition.splitRows): the halo-free rows, whose aggregation reads no
// sampled boundary slot, and the halo-dependent remainder. The row buckets
// drive the sparse SpMM engine (tensor.SpMMMatMulRows and friends, over the
// aggregation plan LocalPartition rebuilds with each epoch graph): the
// chunked row passes, the one-shot passes, and the engine's edge-blocked
// kernels are all bit-identical per row, so the schedule equivalences below
// hold unchanged on top of it. Halo sends and
// receives are posted asynchronously (comm.Worker.ISendF32/IRecvF32) before
// any chunk runs. The two schedules differ only in where the waits sit and
// in what order peer payloads are consumed:
//
//	ScheduleSerialized:   post → wait+consume (rank order) → chunk1 → chunk2
//	ScheduleOverlap:      post → chunk1 → consume peers in ARRIVAL order,
//	                      computing each peer's dependent rows as its
//	                      payload lands (drainForwardArrival)
//
// The arrival-order drain is the default. It rides on the transports'
// completion notifications (comm.Transport.IRecvF32Notify): every posted
// halo receive reports its peer on RankTrainer.arrCh the moment the payload
// is consumable, and the drain consumes whichever lands first — so one slow
// peer no longer stalls rows whose data already arrived. Determinism
// survives the nondeterministic consumption order because nothing in it is
// order-sensitive:
//
//   - the forward scatter writes each peer's rows into disjoint halo slots;
//   - dropout masks for the whole halo range are drawn up front in ascending
//     element order (nn.Dropout.MaskRows — the RNG stream order of the
//     serialized schedule) and only *applied* per peer on arrival;
//   - a halo-dependent row is computed exactly once, when its last awaited
//     peer lands (splitRows' per-peer buckets + rowWait countdown), and the
//     chunked row passes are bit-identical per row in any order;
//   - backward peer gradients, whose += folds into shared rows ARE
//     order-sensitive, are only staged per peer on arrival and folded in
//     canonical ascending rank order once all are in.
//
// Both schedules therefore issue the same messages and the same per-row
// arithmetic with the same RNG consumption order, and are bit-identical by
// construction: weights, losses, and per-rank payload bytes match exactly on
// every backend (the overlap equivalence tests pin this, including a skewed
// comm.WithLinkModel case that inverts peer completion order). The chunked
// passes themselves are bit-identical to the one-shot layer passes (see nn's
// chunked-pass property tests), so the engine also reproduces the historical
// serialized implementation bit for bit.
//
// Backward is staged the same way per layer: BackwardBegin + BackwardHalo
// complete the halo rows of the input gradient first, their 1/p-scaled
// payloads are posted, and the parameter gradients plus inner rows
// (BackwardFinish) overlap the exchange before the peer gradients are folded
// into the next layer's output gradient.
//
// Timing is split into two comm counters (see EpochStats): CommExposed is
// the critical-path portion (payload gather/serialize plus actual blocked
// waits and halo fills), Comm the raw span from post to last consumption —
// which under overlap runs concurrently with Compute and measures what the
// exchange would cost if nothing hid it. The arrival-order drain attributes
// the row compute it interleaves between waits to Compute, not CommExposed,
// so the exposed figure stays comparable with the serialized schedule.

// runEpoch executes one epoch of strategy-sampled partition-parallel
// training for this rank over the worker's transport.
func (rt *RankTrainer) runEpoch(w *comm.Worker) RankStats {
	var ws RankStats
	rank := rt.Rank
	lp := rt.LP
	model := rt.Model
	k := rt.Topo.K
	overlap := rt.Cfg.Schedule.overlapped()

	// --- Sampling phase (lines 4–7): the strategy decides the epoch ---
	start := time.Now()
	plan := &rt.plan
	rt.strat.PlanEpoch(plan)
	myPos := plan.Positions // aliases lp.myPos: positions I sampled, per owner
	for j := 0; j < k; j++ {
		if j != rank {
			ws.SampledBd += len(myPos[j])
		}
	}
	// The strategy's 1/p rescaling of received features (Section 3.2 for BNS)
	// makes the *mean aggregator's* neighbor sum unbiased. Attention models
	// normalize per-neighborhood via softmax, so the rescale would only
	// distort the attention logits — GAT runs unscaled whatever the strategy
	// reports, matching the official code.
	invP := plan.InvP
	if invP <= 0 {
		invP = 1
	}
	var haloScale []float32 // per-slot receive rescale; nil = uniform invP
	if rt.Cfg.Model.Arch == ArchSAGE {
		haloScale = plan.HaloScale
	} else {
		invP = 1
	}
	// A row-dropping strategy shrinks the loss to the inner rows it kept; the
	// mask is captured now, before peer demand promotes extra rows back into
	// compute. The normalizer stays the global train count — a property of
	// the dataset alone — so the sampled loss is a fixed-expected-fraction
	// estimate of the full one and ranks need no extra agreement round.
	lossMask := lp.TrainMask
	if plan.DropsInner {
		lossMask = lp.lossMask
		for v := 0; v < lp.NIn; v++ {
			lossMask[v] = lp.TrainMask[v] && lp.active[v]
		}
	}
	// Broadcast selections. The sent position slices alias lp.myPos scratch:
	// the receiver holds them for the rest of the epoch, and the next
	// epoch's rewrite is safe because TrainEpoch joins all workers in
	// between.
	theirPos := lp.theirPos
	if k > 1 {
		for j := 0; j < k; j++ {
			if j != rank {
				w.SendI32(j, tagPositions, myPos[j])
			}
		}
	}
	// Everything derivable from the local sample runs between the position
	// sends and receives, overlapping the peers' sampling even in the
	// serialized schedule: the epoch subgraph, the effective-degree
	// normalizer, the halo-free/halo-dependent row split, and the receive
	// slot lists.
	eg := lp.epochGraph()
	// Self-normalized mean estimator: sampled remote neighbors carry the
	// strategy's receive rescale in the numerator (the received features
	// arrive pre-scaled), and the normalizer is the matching effective
	// degree. For BNS that is |local| + (1/p)·|sampled remote| — at p=1
	// exactly the full degree; for p<1 the estimate is a convex combination
	// of neighbor features, so sampling noise cannot blow up activations the
	// way the unnormalized 1/p estimator does on low-degree nodes. Plans with
	// per-slot scales or dropped inner rows take the generic per-edge walk;
	// the BNS-shaped plan keeps the historical closed-form expression, whose
	// float evaluation order the bit-identity goldens pin.
	invDeg := lp.InvDeg // EstimatorHT: normalize by the full global degree
	if rt.Cfg.Estimator == EstimatorSelfNorm {
		invDeg = lp.epochInvDeg
		if haloScale == nil && !plan.DropsInner {
			for v := 0; v < lp.NIn; v++ {
				row := eg.Neighbors(int32(v))
				remote := float32(len(row) - int(lp.localNbrs[v]))
				eff := float32(lp.localNbrs[v]) + invP*remote
				if eff > 0 {
					invDeg[v] = 1 / eff
				} else {
					invDeg[v] = 0 // scratch is reused; clear stale entries
				}
			}
		} else {
			for v := 0; v < lp.NIn; v++ {
				var eff float32
				for _, u := range eg.Neighbors(int32(v)) {
					switch {
					case int(u) < lp.NIn:
						eff++
					case haloScale != nil:
						eff += haloScale[int(u)-lp.NIn]
					default:
						eff += invP
					}
				}
				if eff > 0 {
					invDeg[v] = 1 / eff
				} else {
					invDeg[v] = 0 // dropped or isolated row
				}
			}
		}
	}
	if !plan.DropsInner {
		lp.splitRows(eg, overlap, false)
	}
	recvSlots := lp.recvSlots // halo local ids I fill from j
	for j := 0; j < k; j++ {
		if j == rank {
			continue
		}
		full := rt.Topo.Recv[rank][j]
		slots := recvSlots[j][:len(myPos[j])]
		for x, posIdx := range myPos[j] {
			slots[x] = int32(lp.NIn) + full[posIdx]
		}
		recvSlots[j] = slots
	}
	if k > 1 {
		for j := 0; j < k; j++ {
			if j != rank {
				theirPos[j] = w.RecvI32(j, tagPositions)
			}
		}
	}
	sendRows := lp.sendRows // inner local ids to send to j, per layer
	for j := 0; j < k; j++ {
		if j == rank {
			continue
		}
		full := rt.Topo.Send[rank][j]
		rows := sendRows[j][:len(theirPos[j])]
		for x, posIdx := range theirPos[j] {
			rows[x] = full[posIdx]
		}
		sendRows[j] = rows
	}
	if plan.DropsInner {
		// Peers may request inner rows the strategy dropped: promote them
		// back into compute so the features they receive are freshly
		// computed. The epoch graph was built before promotion, so a
		// promoted row keeps an empty neighborhood — it self-projects
		// (the loss mask, also captured pre-promotion, never sees it).
		// The row split must wait for this: it runs on the post-promotion
		// active set, restricted (SAGE only — its staged backward tolerates
		// uncomputed rows; GAT computes inactive rows as isolated nodes,
		// which contribute exactly zero gradient).
		for j := 0; j < k; j++ {
			if j == rank {
				continue
			}
			for _, row := range sendRows[j] {
				lp.active[row] = true
			}
		}
		lp.splitRows(eg, overlap, rt.Cfg.Model.Arch == ArchSAGE)
	}
	ws.Sample = time.Since(start)
	// exchanging: does this epoch move any halo traffic at all? (False for
	// k=1, p=0, or an epoch that sampled nothing.) Gates the raw comm-span
	// accounting so halo-free compute is not misreported as comm span when
	// there is no exchange in flight.
	exchanging := false
	for j := 0; j < k; j++ {
		if j != rank && (len(sendRows[j]) > 0 || len(recvSlots[j]) > 0) {
			exchanging = true
		}
	}

	// --- Forward (lines 8–11) ---
	nLocal := lp.NIn + lp.NBd
	hInner := lp.Features // inner activations entering the current layer
	for l, layer := range model.LayersL {
		dim := layer.InputDim()
		drop := model.Dropouts[l]
		// x comes from the epoch workspace with undefined contents: inner
		// rows are overwritten below, sampled halo slots by the drain, and
		// unsampled halo slots are never read because epochGraph dropped
		// every edge into them.
		x := lp.ws.Get(nLocal, dim)
		copy(x.Data[:lp.NIn*dim], hInner.Data[:lp.NIn*dim])
		// Rows the restricted split excluded from compute carry stale
		// scratch in hInner; zero them so the SAGE parameter-gradient
		// kernels — which read every row — see exact zeros.
		for _, v := range lp.skipRows {
			clear(x.Row(int(v)))
		}

		// Post the halo exchange. Payload buffers alias the epoch
		// workspace; receivers consume them within this epoch.
		cs := time.Now()
		for j := 0; j < k; j++ {
			if j == rank || len(sendRows[j]) == 0 {
				continue
			}
			payload := lp.ws.GetF32(len(sendRows[j]) * dim)
			for x2, row := range sendRows[j] {
				copy(payload[x2*dim:(x2+1)*dim], hInner.Row(int(row)))
			}
			w.ISendF32(j, tagForward+l, payload)
			ws.CommBytes += int64(4 * len(payload))
		}
		nPend := 0
		for j := 0; j < k; j++ {
			if j == rank || len(recvSlots[j]) == 0 {
				continue
			}
			if overlap {
				lp.pendRecv[j] = w.IRecvF32Notify(j, tagForward+l, rt.arrCh, j)
			} else {
				lp.pendRecv[j] = w.IRecvF32(j, tagForward+l)
			}
			nPend++
		}
		post := time.Since(cs)
		ws.CommExposed += post
		ws.Comm += post
		flightStart := time.Now()

		if overlap {
			// Chunk 1 — halo-free rows — while boundary rows are in flight.
			// The halo range's dropout masks are drawn here (ascending, the
			// exact RNG stream position of the serialized schedule's chunk
			// 2) so the drain can apply them per peer in any arrival order.
			ps := time.Now()
			xd := drop.ForwardBegin(x, true)
			drop.ForwardRows(0, lp.NIn)
			hInner = layer.ForwardBegin(eg, xd, lp.NIn, invDeg)
			layer.ForwardPrep(0, lp.NIn)
			drop.MaskRows(lp.NIn, nLocal)
			layer.ForwardRows(lp.haloFree)
			ws.Compute += time.Since(ps)

			lastConsume := rt.drainForwardArrival(w, x, l, dim, invP, haloScale, drop, layer, nPend, &ws)
			if exchanging {
				// Raw comm span ends at the last consumption, not after the
				// trailing row compute the drain interleaves.
				if lastConsume.IsZero() {
					lastConsume = flightStart
				}
				ws.Comm += lastConsume.Sub(flightStart)
			}
		} else {
			// Serialized baseline: identical calls, waits moved up front.
			ds := time.Now()
			rt.drainForward(w, x, l, dim, invP, haloScale)
			d := time.Since(ds)
			ws.CommExposed += d
			ws.Comm += d

			ps := time.Now()
			xd := drop.ForwardBegin(x, true)
			drop.ForwardRows(0, lp.NIn)
			hInner = layer.ForwardBegin(eg, xd, lp.NIn, invDeg)
			layer.ForwardPrep(0, lp.NIn)
			layer.ForwardRows(lp.haloFree)
			drop.ForwardRows(lp.NIn, nLocal)
			layer.ForwardPrep(lp.NIn, nLocal)
			layer.ForwardRows(lp.haloDep)
			ws.Compute += time.Since(ps)
		}
	}

	// --- Loss (line 12) ---
	ls := time.Now()
	d := lp.ws.Get(hInner.Rows, hInner.Cols)
	ws.Loss = LossInto(d, rt.DS, hInner, lp.Labels, lp.LabelMatrix, lossMask, rt.globalTrainCount)
	model.ZeroGrad()
	ws.Compute += time.Since(ls)

	// --- Backward (line 13) ---
	for l := len(model.LayersL) - 1; l >= 0; l-- {
		layer := model.LayersL[l]
		drop := model.Dropouts[l]
		if l == 0 {
			// Input features need no gradient: no halo exchange, and the
			// dropout backward's output is unused — only the parameter
			// gradients matter, which the one-shot backward accumulates.
			bs := time.Now()
			layer.Backward(d)
			ws.Compute += time.Since(bs)
			break
		}
		dim := layer.InputDim()

		// Stage A: pre-activation grads, then the halo rows of the input
		// gradient — the only rows the peers are waiting for.
		bs := time.Now()
		layer.BackwardBegin(d)
		dH := layer.BackwardHalo(lp.haloDep, lp.haloSlots, lp.NIn)
		dxm := drop.BackwardBegin(dH)
		drop.BackwardRows(lp.NIn, nLocal)
		ws.Compute += time.Since(bs)

		// Post the gradient exchange.
		cs := time.Now()
		for j := 0; j < k; j++ {
			if j == rank || len(recvSlots[j]) == 0 {
				continue
			}
			payload := lp.ws.GetF32(len(recvSlots[j]) * dim)
			for x2, slot := range recvSlots[j] {
				src := dxm.Row(int(slot))
				dst := payload[x2*dim : (x2+1)*dim]
				s := invP // chain rule through the receive rescale
				if haloScale != nil {
					s = haloScale[int(slot)-lp.NIn]
				}
				for c, v := range src {
					dst[c] = v * s
				}
			}
			w.ISendF32(j, tagBackward+l, payload)
			ws.CommBytes += int64(4 * len(payload))
		}
		nPend := 0
		for j := 0; j < k; j++ {
			if j == rank || len(sendRows[j]) == 0 {
				continue
			}
			if overlap {
				lp.pendRecv[j] = w.IRecvF32Notify(j, tagBackward+l, rt.arrCh, j)
			} else {
				lp.pendRecv[j] = w.IRecvF32(j, tagBackward+l)
			}
			nPend++
		}
		post := time.Since(cs)
		ws.CommExposed += post
		ws.Comm += post
		flightStart := time.Now()

		if !overlap {
			// Serialized baseline: block for the peer gradients up front.
			ds := time.Now()
			for j := 0; j < k; j++ {
				if j == rank || len(sendRows[j]) == 0 {
					continue
				}
				lp.recvData[j] = lp.pendRecv[j].Wait()
			}
			wd := time.Since(ds)
			ws.CommExposed += wd
			ws.Comm += wd
		}

		// Stage B: parameter gradients + inner rows, overlapping the
		// exchange when the pipelined schedule is on.
		ps := time.Now()
		layer.BackwardFinish(lp.haloFree, lp.NIn)
		drop.BackwardRows(0, lp.NIn)
		ws.Compute += time.Since(ps)

		// Assemble the next output gradient: my inner rows plus the halo
		// gradients the peers computed for them. Peer gradients += into
		// shared destination rows, so the fold itself must stay in ascending
		// rank order (the accumulation order is part of bit-identity) — the
		// arrival-order schedule therefore only *stages* each peer's payload
		// as it lands (the receive, and under a modeled link its latency,
		// completes in arrival order) and folds once all are in.
		as := time.Now()
		if overlap {
			for i := 0; i < nPend; i++ {
				j := <-rt.arrCh
				lp.recvData[j] = lp.pendRecv[j].Wait()
			}
		}
		dNext := lp.ws.Get(lp.NIn, dim)
		copy(dNext.Data, dxm.Data[:lp.NIn*dim])
		// Skipped rows' input-gradient rows are stale scratch (no split
		// write covers them, and no gather reaches an edgeless row); the
		// layer below multiplies its parameter grads by these rows' dPre,
		// so they must be exact zeros.
		for _, v := range lp.skipRows {
			clear(dNext.Row(int(v)))
		}
		for j := 0; j < k; j++ {
			if j == rank || len(sendRows[j]) == 0 {
				continue
			}
			data := lp.recvData[j]
			if data != nil {
				lp.recvData[j] = nil
			} else {
				data = lp.pendRecv[j].Wait()
			}
			for x2, row := range sendRows[j] {
				tensor.AddTo(dNext.Row(int(row)), data[x2*dim:(x2+1)*dim])
			}
			w.RecycleF32(data)
		}
		ad := time.Since(as)
		ws.CommExposed += ad
		if overlap && exchanging {
			ws.Comm += time.Since(flightStart)
		} else {
			ws.Comm += ad
		}
		d = dNext
	}

	// --- Gradient AllReduce + update (lines 14–15) ---
	rs := time.Now()
	flat := nn.FlattenMats(model.Grads(), rt.flatGrad)
	rt.flatGrad = flat
	w.AllReduceSum(flat, tagReduce)
	nn.UnflattenMats(model.Grads(), flat)
	ws.ReduceBytes = int64(4 * len(flat))
	rt.opt.Step(model.Params(), model.Grads())
	ws.Reduce = time.Since(rs)

	// Everything drawn from the epoch workspace is dead now; recycle it.
	lp.ws.Reset()
	return ws
}

// drainForward waits for this layer's boundary feature rows in ascending
// peer order (the serialized schedule), writes them into the halo slots of x
// with the strategy's receive rescale (the unbiased 1/p of Section 3.2 for
// BNS), and recycles the payload buffers. Callers time the whole call and attribute it to the
// comm counters themselves.
func (rt *RankTrainer) drainForward(w *comm.Worker, x *tensor.Matrix, l, dim int, invP float32, haloScale []float32) {
	for j := 0; j < rt.Topo.K; j++ {
		if j == rt.Rank || len(rt.LP.recvSlots[j]) == 0 {
			continue
		}
		rt.consumeForward(w, x, j, l, dim, invP, haloScale)
	}
}

// consumeForward waits for peer j's boundary feature rows for this layer,
// scatters them into j's halo slots of x with the strategy's receive rescale
// (uniform invP, or the plan's per-slot importance weights), and recycles
// the payload buffer. The slots of different peers are disjoint, so both
// drains — serialized rank order and arrival order — go through this one
// path and cannot diverge.
func (rt *RankTrainer) consumeForward(w *comm.Worker, x *tensor.Matrix, j, l, dim int, invP float32, haloScale []float32) {
	lp := rt.LP
	data := lp.pendRecv[j].Wait()
	if len(data) != len(lp.recvSlots[j])*dim {
		panic(fmt.Sprintf("core: rank %d layer %d: got %d floats from %d, want %d",
			rt.Rank, l, len(data), j, len(lp.recvSlots[j])*dim))
	}
	for x2, slot := range lp.recvSlots[j] {
		dst := x.Row(int(slot))
		src := data[x2*dim : (x2+1)*dim]
		s := invP
		if haloScale != nil {
			s = haloScale[int(slot)-lp.NIn]
		}
		for c, v := range src {
			dst[c] = v * s
		}
	}
	w.RecycleF32(data)
}

// drainForwardArrival consumes this layer's boundary feature rows in
// peer-arrival order: it blocks on the completion queue, and whichever
// peer's payload becomes consumable first is scattered into that peer's halo
// slots (disjoint per peer, so arrival order cannot change the bits), the
// slots get their pre-drawn dropout masks applied and their per-node
// precomputations run, and every halo-dependent row whose last awaited peer
// just landed is computed immediately (splitRows' rowWait countdown). Rows
// unlocked by one peer are ascending (peerRows is built by an ascending row
// scan) and each row runs exactly once, with per-row arithmetic identical to
// the serialized chunk 2 — so the result is bit-identical while a slow peer
// stalls only the rows that genuinely need it.
//
// Blocked waits and halo fills are attributed to CommExposed, the unlocked
// row compute to Compute, keeping the exposed-comm figure comparable with
// the serialized schedule; the returned time of the last consumption lets the
// caller end the raw comm span there (zero when nothing was pending).
func (rt *RankTrainer) drainForwardArrival(w *comm.Worker, x *tensor.Matrix, l, dim int, invP float32,
	haloScale []float32, drop *nn.Dropout, layer GraphLayer, nPend int, ws *RankStats) (lastConsume time.Time) {
	lp := rt.LP
	copy(lp.rowWait, lp.rowWaitInit) // re-arm the countdown for this layer's drain
	for i := 0; i < nPend; i++ {
		cs := time.Now()
		j := <-rt.arrCh
		rt.consumeForward(w, x, j, l, dim, invP, haloScale)
		lastConsume = time.Now()
		ws.CommExposed += lastConsume.Sub(cs)

		ps := time.Now()
		drop.ApplyMaskedRows(lp.recvSlots[j])
		layer.ForwardPrepRows(lp.recvSlots[j])
		ready := lp.readyRows[:0]
		for _, v := range lp.peerRows[j] {
			lp.rowWait[v]--
			if lp.rowWait[v] == 0 {
				ready = append(ready, v)
			}
		}
		lp.readyRows = ready
		layer.ForwardRows(ready)
		ws.Compute += time.Since(ps)
	}
	return lastConsume
}
