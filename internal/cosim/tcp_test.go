package cosim

import (
	"net"
	"testing"

	"castanet/internal/atm"
	"castanet/internal/ipc"
	"castanet/internal/mapping"
	"castanet/internal/sim"
)

// TestRemoteLoopbackOverTCP runs the coupling over a genuine TCP socket —
// the paper's UNIX-IPC deployment with the HDL engine in a separate
// process (here: goroutine behind a real network stack). Results must be
// identical to the in-process runs.
func TestRemoteLoopbackOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	e := newLoopbackEntity()
	srvDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		srv := &EntityServer{Entity: e, Transport: ipc.NewConn(conn)}
		srvDone <- srv.Serve()
	}()

	tr, err := ipc.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resps := runLoopback(t, &Remote{Transport: tr}, e, 20)
	tr.Close()
	if err := <-srvDone; err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(resps) != 20 {
		t.Fatalf("responses = %d, want 20", len(resps))
	}
	for i, r := range resps {
		c := r.Value.(*atm.Cell)
		if c.Seq != uint32(i) {
			t.Errorf("response %d: seq %d", i, c.Seq)
		}
		if r.HWTime > r.NetTime {
			t.Errorf("response %d violates lag: hw %v > net %v", i, r.HWTime, r.NetTime)
		}
	}
	if e.CausalityErrors != 0 {
		t.Errorf("causality errors over TCP: %d", e.CausalityErrors)
	}
}

// TestRemoteErrorPropagation checks the error path of the message
// protocol: a message for an undeclared input kind is rejected by the
// entity, travels back as an error frame, and surfaces as a Go error at
// the client — without killing the server, which keeps serving.
func TestRemoteErrorPropagation(t *testing.T) {
	e := newLoopbackEntity()
	a, b := ipc.Pipe(8)
	go (&EntityServer{Entity: e, Transport: b}).Serve()
	defer a.Close()
	remote := &Remote{Transport: a}

	if _, err := remote.Exchange([]ipc.Message{{Kind: ipc.KindUser + 9, Time: sim.Microsecond}}); err == nil {
		t.Fatal("undeclared kind did not error")
	}
	// The server survives and processes valid traffic afterwards.
	cell := &atm.Cell{Header: atm.Header{VPI: 1, VCI: 2}, Seq: 3}
	cell.StampSeq()
	data, _ := (mapping.CellCodec{}).Encode(cell)
	r1, err := remote.Exchange([]ipc.Message{{Kind: KindData, Time: 2 * sim.Microsecond, Data: data}})
	if err != nil {
		t.Fatalf("valid message after error failed: %v", err)
	}
	r2, err := remote.Exchange([]ipc.Message{{Kind: ipc.KindSync, Time: 200 * sim.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1)+len(r2) != 1 {
		t.Fatalf("responses = %d+%d, want 1 total", len(r1), len(r2))
	}
}
