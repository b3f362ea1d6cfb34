package board

import "fmt"

// SwitchConfig returns the configuration data set that wires the
// cycle-based 4x4 ATM switch to the board: four drive lanes for input
// cell octets, one drive lane carrying the four input cell-sync bits,
// mirrored on the sample side — 9 of the 16 byte lanes in use, 74 pins.
func SwitchConfig() ConfigDataSet {
	var cfg ConfigDataSet
	for p := 0; p < 4; p++ {
		cfg.Lanes[p] = LaneConfig{Dir: Drive}
		cfg.Lanes[8+p] = LaneConfig{Dir: Sample}
	}
	cfg.Lanes[4] = LaneConfig{Dir: Drive}
	cfg.Lanes[12] = LaneConfig{Dir: Sample}
	for p := 0; p < 4; p++ {
		cfg.Inports = append(cfg.Inports,
			InportMapping{Port: fmt.Sprintf("rx%d_data", p), Pins: PinRange{Lane: p, StartBit: 0, Bits: 8}},
			InportMapping{Port: fmt.Sprintf("rx%d_sync", p), Pins: PinRange{Lane: 4, StartBit: p, Bits: 1}},
		)
		cfg.Outports = append(cfg.Outports,
			OutportMapping{Port: fmt.Sprintf("tx%d_data", p), Pins: PinRange{Lane: 8 + p, StartBit: 0, Bits: 8}},
			OutportMapping{Port: fmt.Sprintf("tx%d_sync", p), Pins: PinRange{Lane: 12, StartBit: p, Bits: 1}},
		)
	}
	return cfg
}

// SwitchStreams returns the stream pairs matching SwitchConfig.
func SwitchStreams() []StreamPair {
	var s []StreamPair
	for p := 0; p < 4; p++ {
		s = append(s, StreamPair{
			DataIn:  fmt.Sprintf("rx%d_data", p),
			SyncIn:  fmt.Sprintf("rx%d_sync", p),
			DataOut: fmt.Sprintf("tx%d_data", p),
			SyncOut: fmt.Sprintf("tx%d_sync", p),
		})
	}
	return s
}

// AccountingConfig wires the cycle-based accounting unit with its
// microprocessor bus (cyclesim.BusAccounting): cell octets and the sync
// bit on drive lanes 0-1, bus address and req/rw strobes on drive lanes
// 2-3, the exception strobe (usable as an automatic-duration control
// port) and the bus ack on sample lane 8, and the shared 8-bit data bus
// on bidirectional lane 9 under the device's bus_oe flag — the
// three-signal bus modeling of §3.3.
func AccountingConfig() ConfigDataSet {
	var cfg ConfigDataSet
	cfg.Lanes[0] = LaneConfig{Dir: Drive}  // rx_data
	cfg.Lanes[1] = LaneConfig{Dir: Drive}  // rx_sync
	cfg.Lanes[2] = LaneConfig{Dir: Drive}  // addr
	cfg.Lanes[3] = LaneConfig{Dir: Drive}  // req/rw
	cfg.Lanes[8] = LaneConfig{Dir: Sample} // exception/ack
	cfg.Lanes[9] = LaneConfig{Dir: Bidir}  // shared data bus
	cfg.Inports = []InportMapping{
		{Port: "rx_data", Pins: PinRange{Lane: 0, StartBit: 0, Bits: 8}},
		{Port: "rx_sync", Pins: PinRange{Lane: 1, StartBit: 0, Bits: 1}},
		{Port: "addr", Pins: PinRange{Lane: 2, StartBit: 0, Bits: 8}},
		{Port: "req", Pins: PinRange{Lane: 3, StartBit: 0, Bits: 1}},
		{Port: "rw", Pins: PinRange{Lane: 3, StartBit: 1, Bits: 1}},
	}
	cfg.Outports = []OutportMapping{
		{Port: "exception", Pins: PinRange{Lane: 8, StartBit: 0, Bits: 1}},
		{Port: "ack", Pins: PinRange{Lane: 8, StartBit: 1, Bits: 1}},
	}
	cfg.IOPorts = []IOPortMapping{{
		InPort:     "bus_in",
		OutPort:    "bus_out",
		CtrlPort:   "bus_oe",
		WriteValue: 1,
		Pins:       PinRange{Lane: 9, StartBit: 0, Bits: 8},
	}}
	return cfg
}
