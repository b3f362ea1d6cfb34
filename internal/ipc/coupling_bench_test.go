package ipc

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"testing"

	"castanet/internal/sim"
)

// dialUnitEcho starts a TCP echo peer that echoes every unit back as one
// unit and returns the dialed client side. A real socket, not a Pipe, so
// the figures include the serialization and syscall cost a many-message
// unit amortizes.
func dialUnitEcho(b *testing.B) Transport {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		sv := NewConn(c)
		defer sv.Close()
		for {
			u, err := sv.Recv()
			if err != nil {
				return
			}
			if sv.Send(u) != nil {
				return
			}
		}
	}()
	raw, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close(); raw.Close() })
	return raw
}

// windowMsgs builds one δ-window worth of cell-sized coupling messages.
func windowMsgs(delta int) []Message {
	msgs := make([]Message, delta)
	for i := range msgs {
		msgs[i] = Message{
			Kind: KindUser,
			Time: sim.Time(i+1) * sim.Microsecond,
			Data: make([]byte, 53),
		}
	}
	return msgs
}

// benchWindowUnbatched round-trips one δ-window as delta units of one
// message per iteration — the cost of a coupling that did not coalesce.
func benchWindowUnbatched(b *testing.B, delta int) {
	tr := dialUnitEcho(b)
	msgs := windowMsgs(delta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range msgs {
			if err := tr.Send(msgs[j : j+1]); err != nil {
				b.Fatal(err)
			}
		}
		for range msgs {
			if _, err := tr.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
}

// benchWindowBatched round-trips the same δ-window as one unit per
// iteration.
func benchWindowBatched(b *testing.B, delta int) {
	tr := dialUnitEcho(b)
	msgs := windowMsgs(delta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Send(msgs); err != nil {
			b.Fatal(err)
		}
		got := 0
		for got < delta {
			u, err := tr.Recv()
			if err != nil {
				b.Fatal(err)
			}
			got += len(u)
		}
	}
	b.StopTimer()
}

// benchBatchEncode measures the steady-state frame encoder alone: one
// 64-message window serialized to a discarding writer per iteration.
// The pooled buffer makes this zero-alloc after warm-up.
func benchBatchEncode(b *testing.B) {
	msgs := windowMsgs(64)
	// Warm the pool so the steady state, not the first allocation, is
	// what the allocs/op figure reports.
	if err := Encode(io.Discard, msgs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, msgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkCouplingWindow is the interactive form of the BENCH_coupling
// figures: one δ-window round trip per iteration, as units of one vs as
// one unit, at a small and a large window.
func BenchmarkCouplingWindow(b *testing.B) {
	b.Run("unbatched-d4", func(b *testing.B) { benchWindowUnbatched(b, 4) })
	b.Run("batched-d4", func(b *testing.B) { benchWindowBatched(b, 4) })
	b.Run("unbatched-d64", func(b *testing.B) { benchWindowUnbatched(b, 64) })
	b.Run("batched-d64", func(b *testing.B) { benchWindowBatched(b, 64) })
	b.Run("encode-64", benchBatchEncode)
}

// couplingBenchRow is one configuration's figures in BENCH_coupling.json.
type couplingBenchRow struct {
	NsPerCell     float64 `json:"ns_per_cell"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	AllocsPerCell float64 `json:"allocs_per_cell"`
}

// couplingBenchReport is the committed BENCH_coupling.json schema. The
// dimensionless rows (speedups, allocs) are what cmd/benchgate gates on;
// the absolute ns figures are informational, they move with the host.
type couplingBenchReport struct {
	UnbatchedD4  couplingBenchRow `json:"unbatched_delta4"`
	BatchedD4    couplingBenchRow `json:"batched_delta4"`
	UnbatchedD64 couplingBenchRow `json:"unbatched_delta64"`
	BatchedD64   couplingBenchRow `json:"batched_delta64"`
	// BatchEncodeAllocsPerOp is the steady-state allocation count of one
	// Encode of a 64-message window — the zero-alloc claim.
	BatchEncodeAllocsPerOp float64 `json:"batch_encode_64_allocs_per_op"`
	BatchEncodeNsPerOp     float64 `json:"batch_encode_64_ns_per_op"`
	// SpeedupSmall/Large are the cells-per-second ratios of one unit per
	// window over one unit per message, at δ=4 and δ=64.
	SpeedupSmall float64 `json:"speedup_small_delta"`
	SpeedupLarge float64 `json:"speedup_large_delta"`
}

// TestWriteCouplingBench measures the window-vs-message coupling
// figures and writes BENCH_coupling.json. Gated behind COUPLING_BENCH_OUT
// (see the Makefile's bench-all target) so the regular test run stays
// fast.
func TestWriteCouplingBench(t *testing.T) {
	out := os.Getenv("COUPLING_BENCH_OUT")
	if out == "" {
		t.Skip("set COUPLING_BENCH_OUT=<file> to run the coupling benchmark")
	}
	row := func(delta int, f func(*testing.B, int)) couplingBenchRow {
		res := testing.Benchmark(func(b *testing.B) { f(b, delta) })
		perCell := float64(res.NsPerOp()) / float64(delta)
		r := couplingBenchRow{
			NsPerCell:     perCell,
			AllocsPerCell: float64(res.AllocsPerOp()) / float64(delta),
		}
		if perCell > 0 {
			r.CellsPerSec = 1e9 / perCell
		}
		return r
	}
	var report couplingBenchReport
	report.UnbatchedD4 = row(4, benchWindowUnbatched)
	report.BatchedD4 = row(4, benchWindowBatched)
	report.UnbatchedD64 = row(64, benchWindowUnbatched)
	report.BatchedD64 = row(64, benchWindowBatched)
	enc := testing.Benchmark(func(b *testing.B) { benchBatchEncode(b) })
	report.BatchEncodeAllocsPerOp = float64(enc.AllocsPerOp())
	report.BatchEncodeNsPerOp = float64(enc.NsPerOp())
	if report.UnbatchedD4.NsPerCell > 0 {
		report.SpeedupSmall = report.UnbatchedD4.NsPerCell / report.BatchedD4.NsPerCell
	}
	if report.UnbatchedD64.NsPerCell > 0 {
		report.SpeedupLarge = report.UnbatchedD64.NsPerCell / report.BatchedD64.NsPerCell
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
