package cosim

import (
	"errors"
	"testing"
	"time"

	"castanet/internal/atm"
	"castanet/internal/ipc"
	"castanet/internal/netsim"
	"castanet/internal/sim"
)

// withTestDeadline fails the test instead of hanging forever when the
// coupling's own watchdogs are broken.
func withTestDeadline(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("operation hung: watchdog never fired")
		return nil
	}
}

func TestRemoteDeadlineWatchdog(t *testing.T) {
	// The peer accepts the request and then goes silent. Without the
	// deadline the client would block in Recv forever.
	a, _ := ipc.Pipe(16)
	r := &Remote{Transport: a, Deadline: 30 * time.Millisecond}
	err := withTestDeadline(t, 5*time.Second, func() error {
		out, err := r.Exchange([]ipc.Message{{Kind: ipc.KindInit}})
		if out != nil {
			t.Errorf("out = %v, want nil on error", out)
		}
		return err
	})
	var ce *CouplingError
	if !errors.As(err, &ce) || ce.Class != ClassTimeout {
		t.Fatalf("err = %v, want timeout-classed CouplingError", err)
	}
	if !errors.Is(err, ipc.ErrTimeout) {
		t.Errorf("err = %v, want to unwrap to ipc.ErrTimeout", err)
	}
}

func TestRemoteDeadlineAfterExchanges(t *testing.T) {
	// The watchdog is one timer re-armed per Exchange: after several
	// answered exchanges, a peer that stops answering still yields a
	// timeout within Deadline plus scheduling slack.
	const answered = 5
	a, b := ipc.Pipe(16)
	go func() {
		for i := 0; i < answered; i++ {
			if _, err := b.Recv(); err != nil {
				return
			}
			if b.Send([]ipc.Message{{Kind: ipc.KindSync, Time: sim.Time(i)}}) != nil {
				return
			}
		}
		b.Recv() // the last request is read and never answered
	}()
	deadline := 30 * time.Millisecond
	r := &Remote{Transport: a, Deadline: deadline}
	for i := 0; i < answered; i++ {
		if _, err := r.Exchange([]ipc.Message{{Kind: ipc.KindInit}}); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	start := time.Now()
	err := withTestDeadline(t, 5*time.Second, func() error {
		_, err := r.Exchange([]ipc.Message{{Kind: ipc.KindInit}})
		return err
	})
	elapsed := time.Since(start)
	var ce *CouplingError
	if !errors.As(err, &ce) || ce.Class != ClassTimeout {
		t.Fatalf("err = %v, want timeout-classed CouplingError", err)
	}
	if slack := time.Second; elapsed < deadline || elapsed > deadline+slack {
		t.Errorf("timeout after %v, want within %v plus %v", elapsed, deadline, slack)
	}
}

func TestEntityServerWatchdog(t *testing.T) {
	// A client that dials and then never speaks must not pin the server
	// forever.
	_, b := ipc.Pipe(16)
	srv := &EntityServer{Entity: newLoopbackEntity(), Transport: b, Watchdog: 30 * time.Millisecond}
	err := withTestDeadline(t, 5*time.Second, srv.Serve)
	var ce *CouplingError
	if !errors.As(err, &ce) || ce.Class != ClassTimeout {
		t.Fatalf("Serve = %v, want timeout-classed CouplingError", err)
	}
}

func TestRemotePartialResponseDiscarded(t *testing.T) {
	// The server delivers one response and dies before the terminating
	// sync: the half batch must be discarded, not returned.
	a, b := ipc.Pipe(16)
	go func() {
		if _, err := b.Recv(); err != nil {
			return
		}
		b.Send([]ipc.Message{{Kind: KindData, Time: 5, Data: []byte("partial")}})
		b.Close()
	}()
	r := &Remote{Transport: a}
	out, err := r.Exchange([]ipc.Message{{Kind: ipc.KindInit}})
	if err == nil {
		t.Fatal("Exchange succeeded despite missing sync")
	}
	if out != nil {
		t.Fatalf("out = %v, want nil — partial batches must not leak", out)
	}
	var ce *CouplingError
	if !errors.As(err, &ce) || ce.Class != ClassClosed {
		t.Errorf("err = %v, want closed-classed CouplingError", err)
	}
}

func TestRemoteEntityErrorTyped(t *testing.T) {
	a, b := ipc.Pipe(16)
	go func() {
		if _, err := b.Recv(); err != nil {
			return
		}
		b.Send([]ipc.Message{{Kind: kindError, Data: []byte("queue overflow")}})
	}()
	r := &Remote{Transport: a}
	defer r.Close()
	out, err := r.Exchange([]ipc.Message{{Kind: KindData}})
	if out != nil {
		t.Errorf("out = %v, want nil", out)
	}
	// An entity rejection is protocol-classed, never timeout or closed:
	// retrying the run would resend the same poison.
	var ce *CouplingError
	if !errors.As(err, &ce) || ce.Class != ClassProtocol {
		t.Fatalf("err = %v, want protocol-classed CouplingError", err)
	}
	if Retryable(err) {
		t.Error("entity rejection is retryable")
	}
}

// failCoupling rejects every message with the given error.
type failCoupling struct{ err error }

func (f failCoupling) Exchange([]ipc.Message) ([]ipc.Message, error) { return nil, f.err }
func (f failCoupling) Close() error                                  { return nil }

func TestInterfaceGracefulDefault(t *testing.T) {
	// A broken coupling must terminate the run and surface through Err —
	// no panic, no further pushes.
	bang := &CouplingError{Class: ClassClosed, Op: "send", Err: ipc.ErrClosed}
	n := netsim.New(1)
	iface := &InterfaceProcess{
		Coupling: failCoupling{err: bang},
		Registry: newRegistry(),
	}
	src := &netsim.Source{
		Gen:   cellGen{2726 * sim.Nanosecond},
		Limit: 10,
		Make: func(ctx *netsim.Ctx, i uint64) *netsim.Packet {
			c := &atm.Cell{Seq: uint32(i)}
			c.StampSeq()
			return ctx.Net().NewPacket("cell", c, atm.CellBytes*8)
		},
	}
	a := n.Node("src", src)
	b := n.Node("castanet", iface)
	n.Connect(a, 0, b, 0, netsim.LinkParams{})
	n.Run(100 * sim.Microsecond)

	if !errors.Is(iface.Err(), bang) {
		t.Fatalf("Err() = %v, want the coupling failure", iface.Err())
	}
	var ce *CouplingError
	if !errors.As(iface.Err(), &ce) || ce.Class != ClassClosed {
		t.Errorf("Err() = %v, want typed CouplingError", iface.Err())
	}
	// The very first push (the init message) fails; the scheduler stops
	// before any cell is forwarded.
	if iface.Sent != 0 {
		t.Errorf("Sent = %d after coupling failure at init", iface.Sent)
	}
}

func TestInterfaceOnErrorHookStillWins(t *testing.T) {
	var hooked error
	iface := &InterfaceProcess{
		Coupling: failCoupling{err: ipc.ErrClosed},
		Registry: newRegistry(),
		OnError:  func(err error) { hooked = err },
	}
	n := netsim.New(1)
	n.Node("castanet", iface)
	n.Run(sim.Microsecond)
	if !errors.Is(hooked, ipc.ErrClosed) {
		t.Fatalf("OnError saw %v, want the coupling failure", hooked)
	}
	if iface.Err() != nil {
		t.Errorf("Err() = %v, want nil when a hook handles failures", iface.Err())
	}
}
