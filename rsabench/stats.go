package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest order statistics of the raw samples (no bucketing). xs is
// sorted in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usage is a process resource snapshot.
type usage struct {
	cpu    time.Duration // user + system CPU since process start
	maxRSS int64         // peak resident set, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, maxRSS: ru.Maxrss * 1024} // Linux reports KiB
}
