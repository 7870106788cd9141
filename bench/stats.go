package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of measurements of one quantity.
type samples []float64

func durationsMS(ds []time.Duration) samples {
	s := make(samples, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value, or the mean of the two middle values; 0 for
// no samples.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100); 0 for no
// samples.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	return c[rankOf(len(c), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quartiles returns the first, second and third quartile with the
// "exclusive" interpolation of Python's statistics.quantiles(values, n=4),
// which is how run-to-run spreads of this benchmark are judged. Fewer than
// two samples give the single value (or 0) three times.
func (s samples) quartiles() (q1, q2, q3 float64) {
	c := s.sorted()
	n := len(c)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return c[0], c[0], c[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func (s samples) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
