package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// It returns 0 for an empty slice; callers report the sample count next
// to the value, so an empty set is visible.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of a few repeated measurements (set-up times, snapshot times).
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// micros converts durations to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// stmtP50 is the geometric mean, over the distinct requests of one route
// in stmt, of each request's median latency, in microseconds. The
// statements /sql runs differ in cost by more than 20 times, so the
// median of all their latencies together falls in a gap between two
// statements' clusters and jumps from one to the other from run to run;
// this mean of per-statement medians moves only as the statements' own
// costs move.
func stmtP50(stmt map[stmtKey][]time.Duration, r route) float64 {
	var logs []float64
	for k, ds := range stmt {
		if k.route == r {
			logs = append(logs, math.Log(quantile(micros(ds), 0.5)))
		}
	}
	if len(logs) == 0 {
		return 0
	}
	return math.Exp(mean(logs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metric is one reported figure. Samples is printed in the human-readable
// report only; the result line carries value and unit.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}
