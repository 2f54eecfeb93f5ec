package main

import (
	"crypto/sha256"
	"sort"
	"time"
)

// Besides stolen time, the host's speed drifts by tens of percent over
// minutes (frequency scaling, neighbors on sibling hardware threads),
// which moves every wall-clock metric although the program is the same.
// For the closed-loop workloads, whose times scale with host speed, the
// benchmark therefore times a fixed reference job, code the program
// under test never runs, before and after each run's measured work, and
// expresses the end-to-end times in reference units: each duration is
// divided by factor = (median reference time) / refNominal, where
// refNominal is the reference job's time on an unloaded host of the
// kind the benchmark was tuned on (2 vCPUs, x86-64). On such a host the
// factor is near 1 and the units are near real seconds. The raw values
// are printed beside the normalized ones.

// refNominal is the reference job's steal-adjusted time on the tuning
// host.
const refNominal = 29 * time.Millisecond

// refReps is how many reference timings a run takes at each end.
const refReps = 7

// refBuf is the reference job's working set: 8 MiB, beyond the
// per-core caches, so the job feels memory contention as the workloads
// do.
var refBuf = func() []uint32 {
	b := make([]uint32, 1<<21)
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = x
	}
	return b
}()

// refSink keeps the reference job's result alive.
var refSink uint32

// refJob hashes, walks memory at random and sorts: a fixed mix of the
// compute, cache-miss and allocation work the workloads do.
func refJob() {
	var sum [sha256.Size]byte
	chunk := make([]byte, 64<<10)
	for i := 0; i < 24; i++ {
		chunk[i] = byte(i)
		sum = sha256.Sum256(chunk)
	}
	idx := uint32(sum[0])
	for i := 0; i < 1<<18; i++ {
		idx = refBuf[idx%uint32(len(refBuf))]
	}
	ints := make([]int, 1<<15)
	for i := range ints {
		ints[i] = int(refBuf[(i*7919)%len(refBuf)])
	}
	sort.Ints(ints)
	refSink += idx + uint32(ints[len(ints)/2])
}

// calibrate times refReps runs of the reference job, steal-adjusted.
func calibrate(m *stealMeter) []float64 {
	out := make([]float64, 0, refReps)
	for i := 0; i < refReps; i++ {
		t0 := time.Now()
		for j := 0; j < 4; j++ {
			refJob()
		}
		t1 := time.Now()
		m.sample()
		out = append(out, float64(m.adjust(t0, t1))/float64(refNominal))
	}
	return out
}

// normalize rescales a closed-loop run's end-to-end times by the speed
// factor: durations are divided by it, the rate multiplied.
func normalize(rep *report, factor float64) {
	for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p99_ms"} {
		if m, ok := rep.metrics[name]; ok {
			rep.metrics[name+"_raw"] = m
			m.value /= factor
			rep.metrics[name] = m
		}
	}
	if m, ok := rep.metrics["throughput"]; ok {
		rep.metrics["throughput_raw"] = m
		m.value *= factor
		rep.metrics["throughput"] = m
	}
	rep.set("speed_factor", factor, "ratio", 2*refReps)
}
