package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// samples collects durations in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// quantile returns the q-quantile (nearest rank) of an ascending sample,
// in nanoseconds; 0 for an empty sample.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i])
}

// mean returns the arithmetic mean in nanoseconds.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// tail reports the highest of the p99.9/p99/p95/p90 percentiles that has
// at least ten samples beyond it, as a label and its value in
// nanoseconds ("" when even p90 is unsupported).
func (s samples) tail() (string, float64) {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(len(s))*(1-p) >= 10 {
			return fmt.Sprintf("p%g", p*100), s.quantile(p)
		}
	}
	return "", 0
}

// timing reports a latency as <name>_p50_us: the median over the run's
// measurement windows of each window's own median, so a burst of
// interference from outside the program that hits one window does not
// move the figure. The report lines come from describe.
func timing(r *result, name string, wins []samples) {
	var n int
	for _, w := range wins {
		n += len(w)
	}
	r.e2e[name+"_p50_us"] = metric{Value: windowed(wins, 0.5) / 1e3, Unit: "us", n: n}
	describe(r, name, wins)
}

// describe prints a latency's windowed p50 and p90, each window's p50
// and, pooled over all windows, the highest percentile with at least ten
// samples beyond it, with the sample count.
func describe(r *result, name string, wins []samples) {
	var all samples
	for _, w := range wins {
		all = append(all, w...)
	}
	all = all.sorted()
	label, v := all.tail()
	r.logf("%s: n=%d in %d windows; windowed p50 %.1fus, p90 %.1fus; pooled %s %.1fus",
		name, len(all), len(wins), windowed(wins, 0.5)/1e3, windowed(wins, 0.9)/1e3, label, v/1e3)
	r.logf("%s: per-window p50 (us) %.0f", name, perWindowQ(wins, 0.5))
}

// perWindowQ returns each non-empty window's q-quantile in microseconds.
func perWindowQ(wins []samples, q float64) []float64 {
	out := make([]float64, 0, len(wins))
	for _, w := range wins {
		if len(w) > 0 {
			out = append(out, w.sorted().quantile(q)/1e3)
		}
	}
	return out
}

// windowed returns the median over windows of each window's q-quantile.
func windowed(wins []samples, q float64) float64 {
	var vals []float64
	for _, w := range wins {
		if len(w) > 0 {
			vals = append(vals, w.sorted().quantile(q))
		}
	}
	return median(vals)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
