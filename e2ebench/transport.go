package main

import (
	"time"

	"repro/internal/comm"
)

// The training protocol's message tags (internal/core/parallel.go): sampled
// boundary positions, forward feature rows and backward gradient rows per
// layer, and the two steps of the gradient AllReduce ring.
const (
	tagPositions = 1
	tagForward   = 10
	tagBackward  = 200
	tagReduce    = 900
	maxLayers    = 16
)

// msgCounts is one rank's traffic by tag class since the last take.
type msgCounts struct {
	Positions int64
	Fwd, Bwd  [maxLayers]int64 // bytes per layer
	Reduce    int64
	Other     int64
	Msgs      int64
	SendTime  time.Duration // time inside SendF32/SendI32/ISendF32
	RecvTime  time.Duration // time blocked in RecvF32/RecvI32
}

// halo returns the forward plus backward halo bytes.
func (c *msgCounts) halo() int64 {
	var n int64
	for l := 0; l < maxLayers; l++ {
		n += c.Fwd[l] + c.Bwd[l]
	}
	return n
}

// countingTransport decorates one rank's endpoint from outside the program:
// it counts payload bytes and messages per tag class, times the calls that
// pass through it, and records them as spans when tracing. Nonblocking
// receives (IRecvF32, IRecvF32Notify) pass straight through: their handles
// bind the inner transport, so their waits are visible only in the
// trainer's own RankStats.
//
// Every method runs on the rank's own goroutine, and counts are read only
// after the epoch's goroutines have joined, so no field needs a lock.
type countingTransport struct {
	comm.Transport
	c      msgCounts
	tr     *tracer
	parent int // span the rank's calls belong to while tracing
}

// traceUnder points this rank's spans at parent, or stops tracing when tr
// is nil.
func (t *countingTransport) traceUnder(tr *tracer, parent int) { t.tr, t.parent = tr, parent }

// take returns the counts since the last take and zeroes them.
func (t *countingTransport) take() msgCounts {
	c := t.c
	t.c = msgCounts{}
	return c
}

func (t *countingTransport) count(tag, n int) {
	t.c.Msgs++
	switch {
	case tag == tagPositions:
		t.c.Positions += int64(n)
	case tag >= tagForward && tag < tagForward+maxLayers:
		t.c.Fwd[tag-tagForward] += int64(n)
	case tag >= tagBackward && tag < tagBackward+maxLayers:
		t.c.Bwd[tag-tagBackward] += int64(n)
	case tag == tagReduce || tag == tagReduce+1:
		t.c.Reduce += int64(n)
	default:
		t.c.Other += int64(n)
	}
}

func (t *countingTransport) sent(start time.Time) {
	end := time.Now()
	t.c.SendTime += end.Sub(start)
	t.tr.add("comm.Send", t.parent, t.Rank(), start, end)
}

func (t *countingTransport) received(start time.Time) {
	end := time.Now()
	t.c.RecvTime += end.Sub(start)
	t.tr.add("comm.Recv", t.parent, t.Rank(), start, end)
}

func (t *countingTransport) SendF32(dst, tag int, data []float32) {
	start := time.Now()
	t.count(tag, 4*len(data))
	t.Transport.SendF32(dst, tag, data)
	t.sent(start)
}

func (t *countingTransport) SendI32(dst, tag int, data []int32) {
	start := time.Now()
	t.count(tag, 4*len(data))
	t.Transport.SendI32(dst, tag, data)
	t.sent(start)
}

func (t *countingTransport) ISendF32(dst, tag int, data []float32) comm.PendingSend {
	start := time.Now()
	t.count(tag, 4*len(data))
	ps := t.Transport.ISendF32(dst, tag, data)
	t.sent(start)
	return ps
}

func (t *countingTransport) RecvF32(src, tag int) []float32 {
	start := time.Now()
	out := t.Transport.RecvF32(src, tag)
	t.received(start)
	return out
}

func (t *countingTransport) RecvI32(src, tag int) []int32 {
	start := time.Now()
	out := t.Transport.RecvI32(src, tag)
	t.received(start)
	return out
}

// wrapCounting decorates every endpoint of g.
func wrapCounting(g *comm.Group) (*comm.Group, []*countingTransport) {
	ts := make([]comm.Transport, g.Size())
	cs := make([]*countingTransport, g.Size())
	for r := range ts {
		cs[r] = &countingTransport{Transport: g.Worker(r).Transport()}
		ts[r] = cs[r]
	}
	return comm.NewGroup(ts), cs
}
