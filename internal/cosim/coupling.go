package cosim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"castanet/internal/ipc"
)

// Coupling is the channel between the network-simulator side and the
// hardware side. Exchange delivers one unit — the messages of one
// δ-window, which the conservative protocol has already proven safe — in
// order, and returns every response the hardware produced while
// processing it. The strict request/response alternation keeps both
// deployments (in-process and socket) deterministic. msgs is not
// retained; the returned slice is valid until the next Exchange.
//
// Error contract: on a non-nil error the returned slice is nil. Responses
// received before a mid-unit failure are discarded — a half-delivered
// unit is indistinguishable from a corrupted one, and callers must never
// fold it into the verification result.
type Coupling interface {
	Exchange(msgs []ipc.Message) ([]ipc.Message, error)
	Close() error
}

// Direct couples the interface process to an Entity by plain function
// calls — both engines in one OS process, the fastest deployment.
type Direct struct {
	Entity *Entity
}

// Exchange implements Coupling: the messages are delivered back-to-back
// and the entity's outbox — which coalesces emissions per delta-window —
// is taken once for the whole unit.
func (d *Direct) Exchange(msgs []ipc.Message) ([]ipc.Message, error) {
	if err := d.Entity.deliverUnit(msgs); err != nil {
		return nil, &CouplingError{Class: ClassProtocol, Op: "entity", Err: err}
	}
	return d.Entity.TakeOutbox(), nil
}

// Close implements Coupling.
func (d *Direct) Close() error { return nil }

// Remote couples over an ipc.Transport (socket or pipe) to an
// EntityServer in another goroutine or process — the paper's UNIX-IPC
// deployment. The protocol is strictly alternating: one request unit,
// then one reply unit of responses terminated by a KindSync
// acknowledgement carrying the hardware's clock.
type Remote struct {
	Transport ipc.Transport
	// PeerTime is the hardware clock reported by the last acknowledgement.
	PeerTime int64
	// Deadline is the per-operation watchdog: an Exchange whose round trip
	// exceeds it tears the link down and reports a timeout-classed
	// CouplingError instead of hanging on a dead peer. Zero disables it.
	Deadline time.Duration

	timedOut atomic.Bool
	// watchdog enforces Deadline: one timer per Remote, re-armed by every
	// Exchange and stopped when it returns.
	watchdog *time.Timer
}

// Exchange implements Coupling. Errors are typed (*CouplingError); the
// response slice is nil whenever the error is non-nil.
func (r *Remote) Exchange(msgs []ipc.Message) ([]ipc.Message, error) {
	if r.Deadline > 0 {
		if r.watchdog == nil {
			r.watchdog = time.AfterFunc(r.Deadline, r.expire)
		} else {
			r.watchdog.Reset(r.Deadline)
		}
		defer r.watchdog.Stop()
	}
	if err := r.Transport.Send(msgs); err != nil {
		return nil, r.wrap("send", err)
	}
	var out []ipc.Message
	for {
		u, err := r.Transport.Recv()
		if err != nil {
			return nil, r.wrap("recv", err)
		}
		for i, m := range u {
			switch m.Kind {
			case ipc.KindSync:
				r.PeerTime = int64(m.Time)
				if out == nil {
					return u[:i], nil // the whole reply in one unit
				}
				return append(out, u[:i]...), nil
			case kindError:
				return nil, &CouplingError{
					Class: ClassProtocol,
					Op:    "entity",
					Err:   fmt.Errorf("remote entity: %s", m.Data),
				}
			}
		}
		out = append(out, u...)
	}
}

// expire is the watchdog's callback. Closing the transport is the only
// way to unhook a blocked Recv on an arbitrary Transport; the link is
// gone anyway.
func (r *Remote) expire() {
	r.timedOut.Store(true)
	r.Transport.Close()
}

// wrap types a transport error; a failure caused by the deadline watchdog
// reports as timeout, not as the closed link the watchdog left behind.
func (r *Remote) wrap(op string, err error) error {
	if r.timedOut.Load() {
		return &CouplingError{
			Class: ClassTimeout,
			Op:    op,
			Err:   fmt.Errorf("%w: no response within %v", ipc.ErrTimeout, r.Deadline),
		}
	}
	return coupErr(op, err)
}

// Close implements Coupling.
func (r *Remote) Close() error { return r.Transport.Close() }

// kindError carries a remote-side failure description back to the client.
const kindError ipc.Kind = 2

// EntityServer drives an Entity from a transport: the far end of a Remote
// coupling. Serve processes requests until the transport closes.
type EntityServer struct {
	Entity    *Entity
	Transport ipc.Transport
	// Watchdog bounds the wall-clock silence between client requests: a
	// client that goes quiet longer than this is declared gone and Serve
	// returns a timeout-classed CouplingError instead of blocking
	// forever. Zero disables it.
	Watchdog time.Duration

	watchdogFired atomic.Bool
	// reply is the reply unit, reused across requests (Send does not
	// retain it).
	reply []ipc.Message
}

// Serve runs the request loop. It returns nil when the client closes the
// connection cleanly, and a *CouplingError when the link dies any other
// way. The transport is closed on return, so a client blocked on a
// response learns of the server's death instead of waiting forever.
//
// Every request unit earns one reply unit: the entity's coalesced outbox
// followed by the KindSync acknowledgement. A mid-unit Deliver failure
// discards the half-built outbox and answers kindError for the whole
// unit — mirroring the client-side error contract.
func (s *EntityServer) Serve() error {
	defer s.Transport.Close()
	var wd *time.Timer
	if s.Watchdog > 0 {
		wd = time.AfterFunc(s.Watchdog, func() {
			s.watchdogFired.Store(true)
			s.Transport.Close()
		})
		defer wd.Stop()
	}
	for {
		unit, err := s.Transport.Recv()
		if err != nil {
			if s.watchdogFired.Load() {
				return &CouplingError{
					Class: ClassTimeout,
					Op:    "serve",
					Err:   fmt.Errorf("%w: client silent beyond %v", ipc.ErrTimeout, s.Watchdog),
				}
			}
			if errors.Is(err, ipc.ErrClosed) || Classify(err) == ClassClosed {
				return nil // client went away; a clean end of co-simulation
			}
			return coupErr("serve", err)
		}
		if wd != nil {
			wd.Reset(s.Watchdog)
		}
		s.reply = s.reply[:0]
		if derr := s.Entity.deliverUnit(unit); derr != nil {
			s.reply = append(s.reply, ipc.Message{Kind: kindError, Time: s.Entity.HDL.Now(), Data: []byte(derr.Error())})
		} else {
			s.reply = append(s.reply, s.Entity.TakeOutbox()...)
			s.reply = append(s.reply, ipc.Message{Kind: ipc.KindSync, Time: s.Entity.HDL.Now()})
		}
		if err := s.Transport.Send(s.reply); err != nil {
			return coupErr("send", err)
		}
	}
}
