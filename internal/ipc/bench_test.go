package ipc

import (
	"net"
	"testing"
	"time"

	"castanet/internal/sim"
)

// benchEcho starts a TCP echo peer and returns the dialed client conn.
// wrap adapts each side's transport (identity for the raw baseline).
func benchEcho(b *testing.B, wrap func(Transport) Transport) Transport {
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
		tr := wrap(NewConn(c))
		defer tr.Close()
		for {
			u, err := tr.Recv()
			if err != nil {
				return
			}
			if tr.Send(u) != nil {
				return
			}
		}
	}()
	raw, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	return raw
}

func benchRoundTrips(b *testing.B, tr Transport) {
	u := []Message{{Kind: KindUser, Time: sim.Microsecond, Data: make([]byte, 53)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u[0].Time += sim.Microsecond
		if err := tr.Send(u); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tr.Close()
}

// BenchmarkTransport measures one cell-sized round trip per iteration:
// the raw socket framing as the baseline, then the reliability envelope
// on a clean link (pure envelope overhead: seq/crc/ack) and over 5%
// injected loss each way (the retransmission cost the envelope pays to
// keep the verification result intact), all tracked in BENCH_*.json.
// reliable-pipe is the remote coupling's own stack: both ends of an
// in-process pipe enveloped, with an echo peer in a goroutine.
func BenchmarkTransport(b *testing.B) {
	rel := ReliableConfig{
		MaxRetries: 12,
		RetryBase:  time.Millisecond,
		RetryCap:   16 * time.Millisecond,
	}
	b.Run("raw-conn", func(b *testing.B) {
		tr := benchEcho(b, func(t Transport) Transport { return t })
		benchRoundTrips(b, tr)
	})
	b.Run("reliable-loss0", func(b *testing.B) {
		tr := benchEcho(b, func(t Transport) Transport { return NewReliable(t, rel) })
		benchRoundTrips(b, NewReliable(tr, rel))
	})
	b.Run("reliable-loss5", func(b *testing.B) {
		tr := benchEcho(b, func(t Transport) Transport { return NewReliable(t, rel) })
		lossy := NewFault(tr, FaultConfig{
			Seed: 1,
			Send: DirFaults{Drop: 0.05},
			Recv: DirFaults{Drop: 0.05},
		})
		benchRoundTrips(b, NewReliable(lossy, rel))
	})
	b.Run("reliable-pipe", func(b *testing.B) {
		a, far := Pipe(64)
		go echo(NewReliable(far, rel), make(chan struct{}))
		benchRoundTrips(b, NewReliable(a, rel))
	})
}
