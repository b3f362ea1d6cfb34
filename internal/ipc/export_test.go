package ipc

// Stats returns a snapshot of the injected-fault counters.
func (f *FaultTransport) Stats() FaultStats {
	f.statMu.Lock()
	defer f.statMu.Unlock()
	return f.stats
}
