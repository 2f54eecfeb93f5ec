package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is an extrapolation from a
// handful of outliers, not a measurement.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs: the value at rank
// ceil(q·n), clamped to [1, n]. xs need not be sorted; it is not
// modified. An empty xs returns 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	r := rank(n, q)
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// rank is the nearest rank ceil(q·n), clamped to n. The epsilon keeps
// products such as (1-10/n)·n, which round a hair above an integer, on
// that integer.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevel is the highest percentile, capped at want, that leaves at
// least minTail of n samples beyond it under nearest rank. ok is false
// when n is too small for any such percentile above the median.
func tailLevel(n int, want float64) (q float64, ok bool) {
	if n <= 2*minTail {
		return 0.5, false
	}
	q = 1 - float64(minTail)/float64(n)
	if q > want {
		q = want
	}
	return q, true
}

// beyond counts the samples of xs strictly above the nearest-rank
// q-quantile's rank, i.e. n - ceil(q·n).
func beyond(n int, q float64) int { return n - rank(n, q) }

// dist summarizes one latency-like sample set.
type dist struct {
	n        int
	p50      float64
	tail     float64 // value at tailQ
	tailQ    float64 // the percentile actually reported as the tail
	tailFull bool    // tailQ reached the wanted level with minTail beyond it
	windows  int     // >1: tail is the median of this many windows' tails
}

// tailWindow is the sample count from which a run's p99 is taken per
// window of consecutive samples: the smallest count whose p99 has
// minTail samples beyond it.
const tailWindow = minTail * 100

// summarizeRun is summarize for samples in completion order, with the
// tail taken robustly: a run with k >= 2 windows of tailWindow samples
// reports the median of the k windows' p99s, so one burst of machine
// noise moves one window, not the run's tail.
func summarizeRun(xs []float64) dist {
	k := len(xs) / tailWindow
	d := summarize(xs)
	if k < 2 {
		return d
	}
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = summarize(xs[i*len(xs)/k : (i+1)*len(xs)/k]).tail
	}
	d.tail, d.windows = median(tails), k
	return d
}

// summarize reports the median and the p99 (or, on short runs, the
// highest percentile with minTail samples beyond it).
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q, ok := tailLevel(len(s), 0.99)
	return dist{
		n: len(s), p50: quantileSorted(s, 0.5),
		tail: quantileSorted(s, q), tailQ: q, tailFull: ok && q == 0.99,
	}
}

// fromDue is a request's latency in an open loop: completion minus the
// time the schedule said it should have been sent. A stalled generator
// or a busy connection therefore charges its delay to every request it
// held back, instead of hiding it (the coordinated-omission trap of
// timing from the actual send).
func fromDue(due, sent, done time.Time) (latency, lateness time.Duration) {
	return done.Sub(due), sent.Sub(due)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// share is num/den, 0 for an empty denominator.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
