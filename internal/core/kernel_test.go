package core

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The fixed-point kernel decides its common divisions by comparison
// (releasesBy, releasedJobs, carryOut). These tests hold each fast form
// to its floorDiv/ceilDiv definition, at the boundaries where a
// comparison could differ from the division and at magnitudes where a
// naive 2·T or (cap−1)·d_mem would wrap.

// carryOutByDivision is remoteEval's carry-out ramp in its division
// form: ⌈rem/d_mem⌉ clamped to [0, wcCap], and the ramp's next step
// offset, 0 when saturated.
func carryOutByDivision(rem, dmem, wcCap int64) (wc, remNext int64) {
	wcRaw := ceilDiv(rem, dmem)
	wc = wcRaw
	if wc < 0 {
		wc = 0
	} else if wc > wcCap {
		wc = wcCap
	}
	if wcRaw < wcCap {
		remNext = 1
		if wcRaw > 0 {
			remNext = wcRaw*dmem + 1
		}
	}
	return wc, remNext
}

func releasedJobsByDivision(num, period int64) int64 {
	return max(floorDiv(num, period), 0)
}

// addNoWrap appends a+b to vals when the sum does not overflow.
func addNoWrap(vals []int64, a, b int64) []int64 {
	if s := a + b; (b >= 0) == (s >= a) {
		vals = append(vals, s)
	}
	return vals
}

// mulNoWrap returns a·b for a, b ≥ 0 and whether it fits in int64.
func mulNoWrap(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

var kernelMagnitudes = []int64{1, 2, 3, 7, 10, 1000, 1 << 31, math.MaxInt64/2 - 1, math.MaxInt64 / 2, math.MaxInt64/2 + 1, math.MaxInt64 - 1, math.MaxInt64}

func TestKernelFastPathsMatchDivision(t *testing.T) {
	for _, period := range kernelMagnitudes {
		nums := []int64{0, 1, -1, -period, math.MinInt64 / 2, math.MinInt64 + period, math.MaxInt64}
		nums = addNoWrap(nums, period, -1)
		nums = append(nums, period)
		nums = addNoWrap(nums, period, 1)
		if two, ok := mulNoWrap(2, period); ok {
			nums = append(nums, two-1, two)
			nums = addNoWrap(nums, two, 1)
		}
		for _, num := range nums {
			if got, want := releasedJobs(num, period), releasedJobsByDivision(num, period); got != want {
				t.Errorf("releasedJobs(%d, %d) = %d, want %d", num, period, got, want)
			}
			if got, want := releasesBy(num, period), ceilDiv(num, period); got != want {
				t.Errorf("releasesBy(%d, %d) = %d, want %d", num, period, got, want)
			}
		}
	}
	caps := append([]int64{0}, kernelMagnitudes...)
	for _, dmem := range kernelMagnitudes {
		for _, wcCap := range caps {
			rems := []int64{0, 1, -1, -dmem, -dmem + 1, math.MinInt64 + dmem, math.MaxInt64, dmem, dmem - 1}
			rems = addNoWrap(rems, -dmem, -1)
			if wcCap > 0 {
				if lim, ok := mulNoWrap(wcCap-1, dmem); ok {
					rems = append(rems, lim, lim-1)
					rems = addNoWrap(rems, lim, 1)
				}
			}
			for _, rem := range rems {
				gotWC, gotNext := carryOut(rem, dmem, wcCap)
				wantWC, wantNext := carryOutByDivision(rem, dmem, wcCap)
				if gotWC != wantWC || gotNext != wantNext {
					t.Errorf("carryOut(rem %d, d_mem %d, cap %d) = (%d, %d), want (%d, %d)",
						rem, dmem, wcCap, gotWC, gotNext, wantWC, wantNext)
				}
			}
		}
	}
}

// kernelInt draws an int64 from a mix of small values, values near a
// given scale and the whole range, so random cases land on the fast
// paths' boundaries as well as far from them.
func kernelInt(rng *rand.Rand, scale int64) int64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Int63n(64) - 16
	case 1:
		return scale + rng.Int63n(9) - 4
	case 2:
		if s := max(scale, 1); s <= math.MaxInt64/4 {
			return rng.Int63n(3*s+1) - s
		}
		fallthrough
	default:
		return int64(rng.Uint64())
	}
}

func TestKernelFastPathsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200000; i++ {
		period := max(kernelInt(rng, kernelMagnitudes[rng.Intn(len(kernelMagnitudes))]), 1)
		num := kernelInt(rng, period*int64(rng.Intn(3)))
		if got, want := releasedJobs(num, period), releasedJobsByDivision(num, period); got != want {
			t.Fatalf("releasedJobs(%d, %d) = %d, want %d", num, period, got, want)
		}
		if got, want := releasesBy(num, period), ceilDiv(num, period); got != want {
			t.Fatalf("releasesBy(%d, %d) = %d, want %d", num, period, got, want)
		}

		dmem := max(kernelInt(rng, kernelMagnitudes[rng.Intn(len(kernelMagnitudes))]), 1)
		wcCap := max(kernelInt(rng, int64(rng.Intn(2000))), 0)
		scale := dmem
		if lim, ok := mulNoWrap(max(wcCap-1, 0), dmem); ok {
			scale = lim
		}
		rem := kernelInt(rng, scale)
		gotWC, gotNext := carryOut(rem, dmem, wcCap)
		wantWC, wantNext := carryOutByDivision(rem, dmem, wcCap)
		if gotWC != wantWC || gotNext != wantNext {
			t.Fatalf("carryOut(rem %d, d_mem %d, cap %d) = (%d, %d), want (%d, %d)",
				rem, dmem, wcCap, gotWC, gotNext, wantWC, wantNext)
		}
	}
}
