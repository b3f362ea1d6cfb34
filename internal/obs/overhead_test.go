package obs_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"castanet/internal/hdl"
	"castanet/internal/ipc"
	"castanet/internal/obs"
	"castanet/internal/sim"
)

// benchHDLStep measures the HDL kernel hot path: one executed time point
// per iteration (a clock edge plus one sensitive process). With reg == nil
// the kernel runs with instrumentation compiled in but disabled — the
// configuration every uninstrumented rig pays for.
func benchHDLStep(b *testing.B, reg *obs.Registry) {
	h := hdl.New()
	h.Instrument(reg, "hdl.sim")
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, 2*sim.Nanosecond)
	n := 0
	h.Process("count", func() { n++ }, clk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReliableRoundTrip measures the coupling-transport hot path: one
// cell-sized request/response through the reliability envelope over an
// in-process pipe, with the per-message stat mirror on or off.
func benchReliableRoundTrip(b *testing.B, reg *obs.Registry) {
	cfg := ipc.ReliableConfig{
		MaxRetries: 12,
		RetryBase:  time.Millisecond,
		RetryCap:   16 * time.Millisecond,
	}
	cl, sv := ipc.Pipe(64)
	server := ipc.NewReliable(sv, cfg)
	go func() {
		for {
			u, err := server.Recv()
			if err != nil {
				return
			}
			if server.Send(u) != nil {
				return
			}
		}
	}()
	client := ipc.NewReliable(cl, cfg)
	client.Instrument(reg, "ipc.reliable")
	defer client.Close()
	u := []ipc.Message{{Kind: ipc.KindUser, Time: sim.Microsecond, Data: make([]byte, 53)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u[0].Time += sim.Microsecond
		if err := client.Send(u); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// benchCoverPath measures the functional-coverage hot path on the HDL
// kernel loop: one executed time point plus the per-cell cover pattern —
// one cached-handle hit and one range observe, the shape of the
// cell-header and queue-depth sites after the bin handles are resolved
// once at instrumentation time. With c == nil every handle is nil, the
// configuration a run without -coverage pays.
func benchCoverPath(b *testing.B, c *obs.CoverRegistry) {
	h := hdl.New()
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, 2*sim.Nanosecond)
	n := 0
	h.Process("count", func() { n++ }, clk)
	g := c.Group("bench")
	match := g.Point("verdict", "match", "mismatch").Handle("match")
	depth := g.Range("depth", 1, 4, 16, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Step(); err != nil {
			b.Fatal(err)
		}
		match.Hit()
		depth.Observe(int64(i & 127))
	}
}

// benchHDLProfileStep measures the HDL kernel loop with the activity
// profiler disabled (the default: one nil test per signal event) or
// enabled (flat per-ID array increments on every event and process run).
func benchHDLProfileStep(b *testing.B, profiled bool) {
	h := hdl.New()
	if profiled {
		h.EnableProfile()
	}
	clk := h.Bit("clk", hdl.U)
	h.Clock(clk, 2*sim.Nanosecond)
	n := 0
	h.Process("count", func() { n++ }, clk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHDLStep compares the HDL kernel with observability disabled
// (nil registry: the zero-cost claim) and enabled.
func BenchmarkHDLStep(b *testing.B) {
	b.Run("obs-off", func(b *testing.B) { benchHDLStep(b, nil) })
	b.Run("obs-on", func(b *testing.B) { benchHDLStep(b, obs.NewRegistry()) })
}

// BenchmarkReliableRoundTrip compares the reliable transport with the
// registry mirror disabled and enabled.
func BenchmarkReliableRoundTrip(b *testing.B) {
	b.Run("obs-off", func(b *testing.B) { benchReliableRoundTrip(b, nil) })
	b.Run("obs-on", func(b *testing.B) { benchReliableRoundTrip(b, obs.NewRegistry()) })
}

// BenchmarkCoverPath compares the kernel loop with functional coverage
// disabled (nil cover registry) and enabled.
func BenchmarkCoverPath(b *testing.B) {
	b.Run("cover-off", func(b *testing.B) { benchCoverPath(b, nil) })
	b.Run("cover-on", func(b *testing.B) { benchCoverPath(b, obs.NewCoverRegistry()) })
}

// BenchmarkHDLProfile compares the kernel loop with the activity profiler
// disabled (the -profile-off configuration every run pays) and enabled.
func BenchmarkHDLProfile(b *testing.B) {
	b.Run("profile-off", func(b *testing.B) { benchHDLProfileStep(b, false) })
	b.Run("profile-on", func(b *testing.B) { benchHDLProfileStep(b, true) })
}

// obsBenchPair is one hot path's off/on measurement in BENCH_obs.json.
type obsBenchPair struct {
	OffNsOp float64 `json:"off_ns_op"`
	OnNsOp  float64 `json:"on_ns_op"`
	// EnabledOverheadFrac is on/off - 1: the full cost of live counters
	// and gauges, an upper bound on the disabled (nil-handle) cost.
	// Clamped at zero — a negative measurement is host jitter, and a
	// negative committed baseline would turn benchgate's absolute-drift
	// bound (baseline + 0.05) into a gate that fails legitimate ~0
	// measurements.
	EnabledOverheadFrac float64 `json:"enabled_overhead_frac"`
}

// overheadFrac computes the clamped enabled-overhead fraction of a pair.
func overheadFrac(offNs, onNs float64) float64 {
	if offNs <= 0 {
		return 0
	}
	frac := onNs/offNs - 1
	if frac < 0 {
		return 0
	}
	return frac
}

// TestWriteObsBench runs the overhead benchmarks via testing.Benchmark and
// writes BENCH_obs.json. Gated behind OBS_BENCH_OUT (see the Makefile's
// obs-bench target) so the regular test run stays fast. nil_handle_ns_op
// pins the disabled-path primitive: one Inc on a nil *Counter, i.e. the
// pointer test every disabled instrumentation site costs.
func TestWriteObsBench(t *testing.T) {
	out := os.Getenv("OBS_BENCH_OUT")
	if out == "" {
		t.Skip("set OBS_BENCH_OUT=<file> to run the overhead benchmark")
	}
	measure := func(f func(*testing.B, *obs.Registry)) obsBenchPair {
		off := testing.Benchmark(func(b *testing.B) { f(b, nil) })
		on := testing.Benchmark(func(b *testing.B) { f(b, obs.NewRegistry()) })
		p := obsBenchPair{OffNsOp: float64(off.NsPerOp()), OnNsOp: float64(on.NsPerOp())}
		p.EnabledOverheadFrac = overheadFrac(p.OffNsOp, p.OnNsOp)
		return p
	}
	coverPath := obsBenchPair{
		OffNsOp: float64(testing.Benchmark(func(b *testing.B) { benchCoverPath(b, nil) }).NsPerOp()),
		OnNsOp:  float64(testing.Benchmark(func(b *testing.B) { benchCoverPath(b, obs.NewCoverRegistry()) }).NsPerOp()),
	}
	coverPath.EnabledOverheadFrac = overheadFrac(coverPath.OffNsOp, coverPath.OnNsOp)
	hdlProfile := obsBenchPair{
		OffNsOp: float64(testing.Benchmark(func(b *testing.B) { benchHDLProfileStep(b, false) }).NsPerOp()),
		OnNsOp:  float64(testing.Benchmark(func(b *testing.B) { benchHDLProfileStep(b, true) }).NsPerOp()),
	}
	hdlProfile.EnabledOverheadFrac = overheadFrac(hdlProfile.OffNsOp, hdlProfile.OnNsOp)
	nilHandle := testing.Benchmark(func(b *testing.B) {
		var c *obs.Counter
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	nilCover := testing.Benchmark(func(b *testing.B) {
		var p *obs.CoverPoint
		for i := 0; i < b.N; i++ {
			p.Hit("match")
			p.Observe(int64(i))
		}
	})
	// nil_profile_ns_op pins the disabled-profiler primitive: one phase
	// attribution on a nil *PhaseProfile plus the nil-handle test of the
	// activity path — the per-site cost of a run without -profile.
	nilProfile := testing.Benchmark(func(b *testing.B) {
		var ph *obs.PhaseProfile
		var rp *obs.RunProfile
		for i := 0; i < b.N; i++ {
			ph.AddNs(obs.PhaseHDL, int64(i))
			ph = rp.PhaseProf()
		}
	})
	report := struct {
		HDLStep           obsBenchPair `json:"hdl_step"`
		ReliableRoundTrip obsBenchPair `json:"reliable_roundtrip"`
		CoverPath         obsBenchPair `json:"cover_path"`
		HDLProfile        obsBenchPair `json:"hdl_profile"`
		NilHandleNsOp     float64      `json:"nil_handle_ns_op"`
		NilCoverNsOp      float64      `json:"nil_cover_ns_op"`
		NilProfileNsOp    float64      `json:"nil_profile_ns_op"`
	}{
		HDLStep:           measure(benchHDLStep),
		ReliableRoundTrip: measure(benchReliableRoundTrip),
		CoverPath:         coverPath,
		HDLProfile:        hdlProfile,
		NilHandleNsOp:     float64(nilHandle.NsPerOp()),
		NilCoverNsOp:      float64(nilCover.NsPerOp()),
		NilProfileNsOp:    float64(nilProfile.NsPerOp()),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", out, data)
}
