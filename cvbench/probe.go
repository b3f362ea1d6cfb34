package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// runtime/metrics samples read around each repetition.
const (
	mAllocBytes = iota
	mAllocObjects
	mTinyObjects
	mLiveBytes
	mGCCPU
	mTotalCPU
	mCount
)

var sampleNames = [mCount]string{
	mAllocBytes:   "/gc/heap/allocs:bytes",
	mAllocObjects: "/gc/heap/allocs:objects",
	mTinyObjects:  "/gc/heap/tiny/allocs:objects",
	mLiveBytes:    "/gc/heap/live:bytes",
	mGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
	mTotalCPU:     "/cpu/classes/total:cpu-seconds",
}

type runtimeSample [mCount]float64

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, mCount)
	for i := range s {
		s[i].Name = sampleNames[i]
	}
	metrics.Read(s)
	var out runtimeSample
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// probe measures one repetition from outside the program: host time of the
// set-up and run phases, heap bytes and objects allocated, the GC's share of
// CPU and the peak live heap. A repetition calls start, setupDone and stop in
// that order, and keeps everything it built reachable until stop returns, so
// the forced collection in stop sees the workload's full live heap.
type probe struct {
	t0, t1, t2 time.Time
	base       runtimeSample
	stopPeak   func() float64

	setup, wall   time.Duration
	allocBytes    float64
	mallocs       float64
	peakHeapBytes float64
	gcCPUFrac     float64
}

func (p *probe) start() {
	// Collect first so every repetition starts from the same heap state
	// and the allocation counters are exact (a collection flushes the
	// per-P allocation caches).
	runtime.GC()
	p.base = readRuntime()
	p.stopPeak = watchLiveHeap()
	p.t0 = time.Now()
}

func (p *probe) setupDone() { p.t1 = time.Now() }

func (p *probe) stop() {
	p.t2 = time.Now()
	p.setup = p.t1.Sub(p.t0)
	p.wall = p.t2.Sub(p.t0)
	peak := p.stopPeak()
	cpu := readRuntime()
	if d := cpu[mTotalCPU] - p.base[mTotalCPU]; d > 0 {
		p.gcCPUFrac = (cpu[mGCCPU] - p.base[mGCCPU]) / d
	}
	runtime.GC()
	end := readRuntime()
	p.allocBytes = end[mAllocBytes] - p.base[mAllocBytes]
	p.mallocs = end[mAllocObjects] + end[mTinyObjects] - p.base[mAllocObjects] - p.base[mTinyObjects]
	p.peakHeapBytes = max(peak, end[mLiveBytes])
}

// watchLiveHeap polls the live heap (as marked by the latest collection)
// until the returned function is called, which stops the poller, waits for
// it and returns the largest value seen.
func watchLiveHeap() func() float64 {
	done := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: sampleNames[mLiveBytes]}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var hi uint64
		for {
			metrics.Read(s)
			hi = max(hi, s[0].Value.Uint64())
			select {
			case <-done:
				peak <- float64(hi)
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}
