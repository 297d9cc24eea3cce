package model

import "heapmd/internal/metrics"

// Per-metric lookup for the package's tests. Production reads a
// BuildResult's Reports in order.

// Report returns the MetricReport for a metric ID, or nil.
func (b *BuildResult) Report(id metrics.ID) *MetricReport {
	for i := range b.Reports {
		if b.Reports[i].Metric == id.String() {
			return &b.Reports[i]
		}
	}
	return nil
}
