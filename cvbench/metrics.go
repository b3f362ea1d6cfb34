package main

// metricDef describes one reported metric. The names, units and directions
// are the ones BENCHMARK.json lists; main_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	// The fields below describe per-layer metrics only.
	layer string
	// counter marks a deterministic count: it must repeat exactly across
	// repetitions of one seed, or the repetition counts as failed.
	counter bool
	// moves and on say which end-to-end metric the layer metric should move,
	// and on which workloads.
	moves, on string
}

// endToEnd are the metrics a user of the environment sees, measured on
// untraced repetitions. failed_frac is reported beside them in the text
// report; the JSON result carries it as failed/attempted, because a gated
// metric must never read 0.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "cells_per_s", unit: "cells/s", better: "higher"},
	{name: "clk_cycles_per_s", unit: "cycles/s", better: "higher"},
	{name: "alloc_bytes_per_cell", unit: "B/cell", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
}

const (
	hdlMoves     = "cells_per_s, clk_cycles_per_s"
	hdlOn        = "switch_campaign, e1_cosim, e1_rtl; ~0 on lockstep_remote"
	mappingOn    = "e1_cosim, switch_campaign; none on e1_rtl"
	transportOn  = "lockstep_remote; <=2% of e1_cosim"
	netsimOn     = "lockstep_remote, e1_cosim"
	runtimeMoves = "alloc_bytes_per_cell, cells_per_s"
	runtimeOn    = "lockstep_remote, switch_campaign"
)

// perLayer are the per-layer metrics of a traced run. Counters are also
// read on untraced repetitions and checked for exact repetition there.
var perLayer = []metricDef{
	{name: "hdl.process_runs_per_cell", unit: "runs/cell", better: "lower", layer: "hdl", counter: true, moves: hdlMoves, on: hdlOn},
	{name: "hdl.signal_events_per_cell", unit: "events/cell", better: "lower", layer: "hdl", counter: true, moves: hdlMoves, on: hdlOn},
	{name: "hdl.runs_per_signal_event", unit: "ratio", better: "lower", layer: "hdl", counter: true, moves: hdlMoves, on: hdlOn},
	{name: "hdl.delta_cycles_per_cell", unit: "deltas/cell", better: "lower", layer: "hdl", counter: true, moves: hdlMoves, on: hdlOn},
	{name: "hdl.time_points_per_cell", unit: "points/cell", better: "lower", layer: "hdl", counter: true, moves: hdlMoves, on: hdlOn},
	{name: "hdl.ns_per_process_run", unit: "ns", better: "lower", layer: "hdl", moves: hdlMoves, on: hdlOn},
	{name: "hdl.busy_frac", unit: "ratio", better: "lower", layer: "hdl", moves: hdlMoves, on: hdlOn},
	{name: "mapping.port_runs_per_cell", unit: "runs/cell", better: "lower", layer: "mapping", moves: "cells_per_s", on: mappingOn},
	{name: "mapping.codec_ns_per_msg", unit: "ns", better: "lower", layer: "mapping", moves: "cells_per_s", on: mappingOn},
	{name: "dut.process_runs_per_cell", unit: "runs/cell", better: "lower", layer: "dut", moves: "cells_per_s", on: "all four"},
	{name: "rtltb.process_runs_per_cell", unit: "runs/cell", better: "lower", layer: "rtltb", moves: "cells_per_s", on: "e1_rtl only"},
	{name: "cosim.messages_per_cell", unit: "msgs/cell", better: "lower", layer: "cosim", counter: true, moves: "cells_per_s, failed_frac", on: "lockstep_remote"},
	{name: "cosim.windows_per_cell", unit: "windows/cell", better: "lower", layer: "cosim", counter: true, moves: "cells_per_s, failed_frac", on: "lockstep_remote"},
	{name: "cosim.causality_errors", unit: "count", better: "lower", layer: "cosim", counter: true, moves: "cells_per_s, failed_frac", on: "lockstep_remote"},
	{name: "ipc.transport_ns_per_unit", unit: "ns", better: "lower", layer: "ipc", moves: "cells_per_s, alloc_bytes_per_cell", on: transportOn},
	{name: "ipc.transport_frac", unit: "ratio", better: "lower", layer: "ipc", moves: "cells_per_s, alloc_bytes_per_cell", on: transportOn},
	{name: "ipc.retransmits_per_kmsg", unit: "1/kmsg", better: "lower", layer: "ipc", counter: true, moves: "cells_per_s, alloc_bytes_per_cell", on: transportOn},
	{name: "netsim.events_per_cell", unit: "events/cell", better: "lower", layer: "netsim", counter: true, moves: "cells_per_s", on: netsimOn},
	{name: "unattributed_frac", unit: "ratio", better: "lower", layer: "netsim", moves: "cells_per_s", on: netsimOn},
	{name: "coverify.elaborate_ms", unit: "ms", better: "lower", layer: "coverify", moves: "setup_s; wall_s on the campaign", on: "e1_rtl, switch_campaign"},
	{name: "campaign.run_ms_p50", unit: "ms", better: "lower", layer: "campaign", moves: "wall_s", on: "switch_campaign only"},
	{name: "campaign.run_ms_p95", unit: "ms", better: "lower", layer: "campaign", moves: "wall_s", on: "switch_campaign only"},
	{name: "campaign.shard_busy_frac", unit: "ratio", better: "higher", layer: "campaign", moves: "wall_s", on: "switch_campaign only"},
	{name: "go.mallocs_per_cell", unit: "mallocs/cell", better: "lower", layer: "go", moves: runtimeMoves, on: runtimeOn},
	{name: "go.gc_cpu_frac", unit: "ratio", better: "lower", layer: "go", moves: runtimeMoves, on: runtimeOn},
	{name: "obs.trace_overhead_frac", unit: "ratio", better: "lower", layer: "obs", moves: "none; it reports what the traced numbers cost", on: "all"},
}
