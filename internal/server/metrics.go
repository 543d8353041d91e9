// Per-endpoint request metrics for /stats. They are read from the same
// registry series /metrics renders, so the two endpoints cannot disagree
// and a request pays only the registry's lock-free atomic updates.

package server

import (
	"time"

	"repro/internal/telemetry"
)

// endpointSeries holds one endpoint's registry series.
type endpointSeries struct {
	dur      *telemetry.Histogram // handled requests (admission rejects excluded)
	errors   *telemetry.Counter
	rejected *telemetry.Counter
}

// snapshot computes the endpoint's stats; uptime turns the cumulative count
// into a rate. The percentiles are estimated from the cumulative duration
// histogram since boot.
func (m endpointSeries) snapshot(uptime time.Duration) EndpointStats {
	s := EndpointStats{Count: m.dur.Count(), Errors: m.errors.Value(), Rejected: m.rejected.Value()}
	if s.Count == 0 {
		return s
	}
	if uptime > 0 {
		s.RatePerSec = float64(s.Count) / uptime.Seconds()
	}
	s.MeanMicros = micros(m.dur.Sum() / float64(s.Count))
	s.P50Micros = quantileMicros(m.dur, 0.50)
	s.P95Micros = quantileMicros(m.dur, 0.95)
	s.P99Micros = quantileMicros(m.dur, 0.99)
	return s
}

// quantileMicros estimates quantile q of h in whole microseconds.
func quantileMicros(h *telemetry.Histogram, q float64) int64 {
	v, _ := h.Quantile(q)
	return micros(v)
}

// micros converts seconds to whole microseconds.
func micros(sec float64) int64 { return int64(sec * 1e6) }
