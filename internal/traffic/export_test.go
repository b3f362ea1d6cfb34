package traffic

import "castanet/internal/sim"

// MeanRate returns the long-run average cell rate of the ON/OFF source in
// cells per second.
func (o *OnOff) MeanRate() float64 {
	on := float64(o.MeanOn)
	off := float64(o.MeanOff)
	peak := float64(sim.Second) / float64(o.PeakInterval)
	return peak * on / (on + off)
}

// MeanRate returns the long-run average cell rate of the modulated
// process in cells per second: each state's rate weighted by its mean
// sojourn time.
func (m *MMPP2) MeanRate() float64 {
	s1 := float64(m.Sojourn1)
	s2 := float64(m.Sojourn2)
	return (m.Rate1*s1 + m.Rate2*s2) / (s1 + s2)
}

// MeanRate returns the long-run average cell rate in cells per second
// (peak rate scaled by the ON duty cycle). The tail clamp in pareto
// slightly shortens extreme periods, so empirical means converge to this
// figure only approximately.
func (o *ParetoOnOff) MeanRate() float64 {
	on := float64(o.MeanOn)
	off := float64(o.MeanOff)
	peak := float64(sim.Second) / float64(o.PeakInterval)
	return peak * on / (on + off)
}
