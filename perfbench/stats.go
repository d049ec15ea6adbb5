package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if frac := pos - float64(lo); frac > 0 {
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return s[lo] // also keeps a +Inf neighbour from turning the result into NaN
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQuantile is the highest of p99, p95, p90 and p75 that leaves at
// least ten samples beyond it among n samples; 0.5 when even p75 does not.
func tailQuantile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// latencies collects one op class's latencies; a failed op is recorded as
// +Inf so it misses every latency limit.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration)  { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }
func (l *latencies) fail()                { l.ms = append(l.ms, math.Inf(1)) }
func (l *latencies) p50() float64         { return median(l.ms) }
func (l *latencies) tail() (p, v float64) { p = tailQuantile(len(l.ms)); return p, percentile(l.ms, p) }

// within is the share of ops answered within limitMs; a failed op misses.
func (l *latencies) within(limitMs float64) float64 {
	n := 0
	for _, v := range l.ms {
		if v <= limitMs {
			n++
		}
	}
	return float64(n) / float64(max(1, len(l.ms)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
