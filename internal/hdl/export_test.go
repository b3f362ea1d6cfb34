package hdl

// plainDispatch switches cycle stepping off for s: no clock is eligible,
// so nothing elides or folds and every edge goes through the plain
// trigger path. It is the twin the cycle-stepping tests compare against.
func plainDispatch(s *Simulator) {
	s.plain = true
	for _, g := range s.signals {
		g.rederive()
	}
}
