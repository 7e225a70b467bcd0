package main

// Percentiles are exact order statistics over a run's raw per-call
// samples: the nearest-rank definition, no buckets and no
// interpolation, so a reported p99 is a latency some call really had.

// percentile returns the nearest-rank quantile of xs at perTenK parts
// per ten thousand (5000 is the median, 9900 the 99th percentile): the
// k-th smallest sample with k = ceil(perTenK·n/10000), clamped to
// [1, n]. Integer rank arithmetic keeps the rank exact. xs is reordered
// in place; it must not be empty.
func percentile(xs []uint32, perTenK int) uint32 {
	n := len(xs)
	k := (perTenK*n + 9999) / 10000
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return selectKth(xs, k-1)
}

// selectKth returns the value of 0-based rank k in xs by quickselect
// with a median-of-three pivot and a three-way partition (runs of
// equal latencies are common at nanosecond resolution and would make
// a two-way partition quadratic). xs is partially reordered.
func selectKth(xs []uint32, k int) uint32 {
	lo, hi := 0, len(xs) // the rank-k element lies in xs[lo:hi]
	for hi-lo > 1 {
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Partition into xs[lo:lt] < p, xs[lt:gt] == p, xs[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[gt], xs[i] = v, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	return xs[k]
}

func medianOf3(a, b, c uint32) uint32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}
