// Package stats provides the small statistical toolkit HeapMD uses to
// summarize metric time series: means, standard deviations, min/max
// ranges, and the inter-sample fluctuation series that underlies the
// paper's stability definition (Section 3).
//
// All functions operate on float64 slices and are deliberately
// allocation-light; the execution logger calls them on every metric
// report consolidation.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that cannot produce a meaningful
// result for an empty input series.
var ErrEmpty = errors.New("stats: empty series")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty
// slice; callers that must distinguish emptiness should check first.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (the paper
// reports population deviations over the full fluctuation series).
// It returns 0 for series shorter than 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// minMax returns the minimum and maximum of xs.
func minMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Fluctuation computes the percentage-change series of xs exactly as
// defined in Section 3 of the paper: if a metric changes from y1 to y2
// between consecutive metric computation points, the fluctuation at the
// second point is (y2-y1)/y1 * 100.
//
// When y1 is zero the relative change is undefined; HeapMD treats a
// 0 -> 0 transition as 0% change, and a 0 -> y2 transition as a 100%
// change (the metric appeared from nothing). This matches the intent of
// the stability test: a metric that sits at zero is perfectly stable,
// while one that jumps away from zero is not.
//
// The result has len(xs)-1 entries; it is empty for series shorter
// than 2.
func Fluctuation(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, 0, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out = append(out, change(xs[i-1], xs[i]))
	}
	return out
}

// change is one step of the fluctuation series: the percentage change
// from y1 to y2, with the zero cases Fluctuation documents.
func change(y1, y2 float64) float64 {
	switch {
	case y1 == 0 && y2 == 0:
		return 0
	case y1 == 0:
		return 100
	default:
		return (y2 - y1) / y1 * 100
	}
}

// TrimCount returns the number of samples Trim discards at EACH end of
// an n-sample series: the single rounding rule shared by the
// summarizer's trim (Trim/TrimBounds) and the online detector's
// startup-skip window (model.SkipStartSamples). Keeping one
// implementation matters: if the detector computed its own count with
// different rounding or clamping, it would start checking samples the
// summarizer's calibration had discarded as startup noise — or keep
// skipping samples the model was calibrated on. frac is clamped to
// [0, 0.5); for n >= 1 the clamp guarantees 2*TrimCount(n, frac) < n,
// so a trimmed series is never empty.
func TrimCount(n int, frac float64) int {
	if n <= 0 {
		return 0
	}
	if frac < 0 {
		frac = 0
	}
	if frac >= 0.5 {
		frac = 0.4999
	}
	k := int(float64(n) * frac)
	if 2*k >= n {
		// Unreachable for clamped frac (floor(n*frac) < n/2), kept as
		// a guard so the "never empty" contract survives refactoring.
		k = (n - 1) / 2
	}
	return k
}

// Trim removes the leading and trailing fraction frac of xs, returning
// the middle portion. HeapMD uses Trim with frac=0.10 to discard
// startup and shutdown samples (Section 2.1). frac is clamped to
// [0, 0.5). Trim always leaves at least one element when xs is
// non-empty.
func Trim(xs []float64, frac float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	k := TrimCount(len(xs), frac)
	return xs[k : len(xs)-k]
}

// TrimBounds returns the [lo, hi) index range that Trim would keep.
func TrimBounds(n int, frac float64) (lo, hi int) {
	if n == 0 {
		return 0, 0
	}
	k := TrimCount(n, frac)
	return k, n - k
}

// Range is an inclusive [Min, Max] interval of observed metric values.
// The summarized metric report (the model) stores one Range per
// globally stable metric.
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Union returns the smallest range containing both r and s.
func (r Range) Union(s Range) Range {
	if s.Min < r.Min {
		r.Min = s.Min
	}
	if s.Max > r.Max {
		r.Max = s.Max
	}
	return r
}

// Width returns Max-Min. Wide stable ranges make weaker anomaly
// detectors (paper Section 3.1), so experiment code reports Width.
func (r Range) Width() float64 { return r.Max - r.Min }

// RangeOf computes the range spanned by xs.
func RangeOf(xs []float64) (Range, error) {
	min, max, err := minMax(xs)
	if err != nil {
		return Range{}, err
	}
	return Range{Min: min, Max: max}, nil
}

// Summary bundles the statistics HeapMD's summarizer derives from one
// metric's fluctuation series on one input.
type Summary struct {
	// AvgChange is the mean of the fluctuation series, in percent.
	AvgChange float64
	// StdDevChange is the standard deviation of the fluctuation
	// series.
	StdDevChange float64
	// Observed is the range of raw metric values (after trimming).
	Observed Range
	// Samples is the number of (trimmed) metric samples consumed.
	Samples int
}

// Summarize computes a Summary from a trimmed metric value series. Its
// AvgChange and StdDevChange equal Mean and StdDev of
// Fluctuation(trimmed) bit for bit, but it builds no fluctuation
// series: it walks the steps twice, once for the mean and once for the
// deviation.
func Summarize(trimmed []float64) (Summary, error) {
	obs, err := RangeOf(trimmed)
	if err != nil {
		return Summary{}, err
	}
	s := Summary{Observed: obs, Samples: len(trimmed)}
	n := len(trimmed) - 1 // fluctuation steps
	if n == 0 {
		return s, nil
	}
	sum := 0.0
	for i := 1; i < len(trimmed); i++ {
		sum += change(trimmed[i-1], trimmed[i])
	}
	s.AvgChange = sum / float64(n)
	if n < 2 {
		return s, nil
	}
	sum = 0
	for i := 1; i < len(trimmed); i++ {
		d := change(trimmed[i-1], trimmed[i]) - s.AvgChange
		sum += d * d
	}
	s.StdDevChange = math.Sqrt(sum / float64(n))
	return s, nil
}
