package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed; a failed check counts
// as a failed operation and the workload runs on.
type tally struct {
	attempted, failed int64
	wrong             int64 // failed because the answer was wrong
	firstFailure      string
}

// op counts one operation: failed when the program returned err, wrong
// (and failed) when its answer did not pass the check.
func (t *tally) op(err error, ok bool, what string, i int) {
	t.attempted++
	if err == nil && ok {
		return
	}
	t.failed++
	if err == nil {
		t.wrong++
	}
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf("%s #%d: err=%v", what, i, err)
	}
}

// samples collects per-operation durations in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// median of a small slice of float64 (0 for none).
func median(v []float64) float64 { return samples(v).quantile(0.5) }

// quartiles returns Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method): the cut points q1, q2, q3. Needs len(v) >= 2.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := 4
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return cut(1), cut(2), cut(3)
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
