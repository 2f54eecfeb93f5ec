package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs on virtual machines whose hypervisor takes CPU
// time away from the guest ("steal"): a vCPU that wants to run is not
// running. On a shared host the stolen share drifts from a few percent
// to over a fifth within minutes, and wall-clock times drift with it
// although the program did the same work. Every wall-clock duration an
// end-to-end metric is built from is therefore scaled by 1 - f, where f
// is the stolen share of the time the guest's CPUs wanted to run over
// the interval the duration spans (stolen / (busy + stolen) ticks from
// /proc/stat, sampled every stealEvery). With no steal, or where
// /proc/stat is unavailable, f is 0 and durations are unchanged. The
// raw values and the mean stolen share are printed beside them.

const stealEvery = 100 * time.Millisecond

type stealSample struct {
	at          time.Time
	busy, stole int64
}

// stealMeter samples /proc/stat's aggregate cpu line in the background
// until stopped.
type stealMeter struct {
	mu      sync.Mutex
	samples []stealSample
	quit    chan struct{}
	done    chan struct{}
}

func startStealMeter() *stealMeter {
	m := &stealMeter{quit: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

// stop ends sampling (taking a last sample) and waits for the sampler.
func (m *stealMeter) stop() {
	close(m.quit)
	<-m.done
	m.sample()
}

// sample records the current tick counts. Callers adjusting durations
// that end now take a sample first, so a sampled span covers them.
func (m *stealMeter) sample() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if busy, stole, ok := cpuTicks(); ok {
		m.samples = append(m.samples, stealSample{at: time.Now(), busy: busy, stole: stole})
	}
}

// cpuTicks reads the busy and stolen ticks summed over all CPUs.
func cpuTicks() (busy, stole int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, false
	}
	v := make([]int64, 8)
	for i := range v {
		v[i], err = strconv.ParseInt(string(f[i+1]), 10, 64)
		if err != nil {
			return 0, 0, false
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}

// share is the stolen share over the smallest sampled span covering
// [from, to]; 0 without samples around it.
func (m *stealMeter) share(from, to time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.samples
	if len(s) < 2 {
		return 0
	}
	// lo: last sample at or before from; hi: first sample at or after to.
	lo := sort.Search(len(s), func(i int) bool { return s[i].at.After(from) }) - 1
	hi := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(to) })
	lo = max(lo, 0)
	hi = min(hi, len(s)-1)
	if hi <= lo {
		if lo > 0 {
			lo--
		} else {
			hi = min(lo+1, len(s)-1)
		}
	}
	busy, stole := s[hi].busy-s[lo].busy, s[hi].stole-s[lo].stole
	if busy+stole <= 0 {
		return 0
	}
	return float64(stole) / float64(busy+stole)
}

// adjust scales the duration of [from, to] by the share of it the
// guest actually ran.
func (m *stealMeter) adjust(from, to time.Time) time.Duration {
	return time.Duration(float64(to.Sub(from)) * (1 - m.share(from, to)))
}

// adjustMS is adjust in milliseconds.
func (m *stealMeter) adjustMS(from, to time.Time) float64 { return ms(m.adjust(from, to)) }
