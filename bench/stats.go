package bench

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) with its default exclusive method, so the
// spreads -compare prints match that function on the same values. Fewer
// than two values give their median three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m, m
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentileLadder lists the percentiles a tail is reported at, highest
// first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile no higher than want that
// has at least ten samples beyond it, and its nearest-rank value in the
// ascending slice s. When no tail resolves it returns the median as
// percentile 50.
func tailPercentile(s []float64, want float64) (p, v float64) {
	n := len(s)
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if rank := rankOf(p, n); rank >= 1 && n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}

// rankOf is the nearest-rank position of the p-th percentile among n
// samples. The small slack keeps p·n that is whole in decimal (99.9% of
// 10000) from rounding up a rank in binary.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// nearestRank returns the p-th percentile of the ascending slice s by the
// nearest-rank rule, or 0 for no samples.
func nearestRank(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[max(1, min(rankOf(p, len(s)), len(s)))-1]
}

// backlogSlackMs is how much later, in milliseconds, requests in the last
// third of a rung may leave than those in the first third before the rung
// counts as building a backlog. It sits above the host timer's jitter
// (about 1 ms) and well below the 10 ms latency limit.
const backlogSlackMs = 2.0

// growingBacklog reports whether the send delays (send time minus due
// time, in due order) grow across a rung: the median delay of the last
// third exceeds that of the first third by more than backlogSlackMs. An
// open-loop generator whose queue drains keeps a flat delay; one whose
// queue grows falls further behind with every request.
func growingBacklog(delaysMs []float64) bool {
	n := len(delaysMs)
	if n < 3 {
		return false
	}
	first := median(delaysMs[:n/3])
	last := median(delaysMs[n-n/3:])
	return last-first > backlogSlackMs
}

// rungOutcome is what maxRate needs from one rate rung.
type rungOutcome struct {
	achieved float64 // completed requests per second
	tailMs   float64 // the rung's tail latency (p99 when resolvable)
	pass     bool    // tail within the limit and no growing backlog
}

// maxRate estimates the highest request rate that meets the latency limit
// from rungs run in ascending rate order and stopped at the first failing
// one. Between the last passing and the first failing rung it interpolates
// the crossing of the limit in log(rate)-log(latency) space; a failing
// rung whose tail is within the limit (it failed on backlog) gives no
// crossing, so the last passing rung's rate stands. With no passing rung
// it scales the first rung's rate by limit/tail.
func maxRate(rungs []rungOutcome, limitMs float64) float64 {
	if len(rungs) == 0 {
		return 0
	}
	k := -1
	for i, r := range rungs {
		if !r.pass {
			break
		}
		k = i
	}
	switch {
	case k < 0:
		return rungs[0].achieved * math.Min(1, limitMs/rungs[0].tailMs)
	case k == len(rungs)-1:
		return rungs[k].achieved
	}
	lo, hi := rungs[k], rungs[k+1]
	if hi.tailMs <= limitMs || lo.tailMs <= 0 || hi.achieved <= lo.achieved {
		return lo.achieved
	}
	t := (math.Log(limitMs) - math.Log(lo.tailMs)) / (math.Log(hi.tailMs) - math.Log(lo.tailMs))
	t = math.Max(0, math.Min(1, t))
	return math.Exp(math.Log(lo.achieved) + t*(math.Log(hi.achieved)-math.Log(lo.achieved)))
}
