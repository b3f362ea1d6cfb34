package cosim

import (
	"fmt"
	"time"

	"castanet/internal/ipc"
)

// Reconnector is a self-healing Remote: when an operation fails with a
// transient error (timeout, closed link) it re-dials, replays the
// initialization handshake, and retries the failed operation with capped
// exponential backoff. Non-transient failures (corrupt, protocol) pass
// through untouched — retrying those would resend the same poison.
//
// The replay assumes the far side comes back with entity state matching
// the recorded handshake — a fresh server or a checkpointed one. Dial is
// responsible for producing such a peer.
type Reconnector struct {
	// Dial establishes a new transport to the entity server.
	Dial func() (ipc.Transport, error)
	// Deadline is the per-operation watchdog handed to the inner Remote.
	Deadline time.Duration
	// MaxAttempts bounds reconnect attempts per failed operation
	// (default 3).
	MaxAttempts int
	// Backoff is the wait before the first reconnect attempt (default
	// 10ms), doubling up to BackoffCap (default 1s).
	Backoff    time.Duration
	BackoffCap time.Duration
	// OnReconnect, when set, runs after the init replay on every new
	// session — the hook for replaying a registry handshake or restoring
	// peer configuration.
	OnReconnect func(r *Remote) error

	// Reconnects counts successful re-dials.
	Reconnects uint64

	cur  *Remote
	init *ipc.Message // recorded KindInit for session replay
}

func (c *Reconnector) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

func (c *Reconnector) backoff() (first, cap time.Duration) {
	first, cap = c.Backoff, c.BackoffCap
	if first <= 0 {
		first = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	return first, cap
}

// connect dials a fresh session. With replay set it re-sends the recorded
// init message and runs the OnReconnect hook, restoring the handshake
// state a new peer expects before arbitrary traffic.
func (c *Reconnector) connect(replay bool) error {
	tr, err := c.Dial()
	if err != nil {
		return coupErr("dial", err)
	}
	c.cur = &Remote{Transport: tr, Deadline: c.Deadline}
	if replay {
		if c.init != nil {
			if _, err := c.cur.Exchange([]ipc.Message{*c.init}); err != nil {
				c.teardown()
				return err
			}
		}
		if c.OnReconnect != nil {
			if err := c.OnReconnect(c.cur); err != nil {
				c.teardown()
				return coupErr("reconnect", err)
			}
		}
	}
	return nil
}

func (c *Reconnector) teardown() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
}

// do runs one coupling operation with the reconnect-and-retry policy.
// sendsInit marks operations that themselves carry the init message:
// replaying the recorded init before retrying those would deliver it
// twice.
func (c *Reconnector) do(sendsInit bool, op func(*Remote) ([]ipc.Message, error)) ([]ipc.Message, error) {
	if c.cur == nil {
		if err := c.connect(false); err != nil {
			return nil, err
		}
	}
	out, err := op(c.cur)
	if err == nil {
		return out, nil
	}
	if !IsTransient(err) {
		return nil, err
	}
	wait, cap := c.backoff()
	var lastErr = err
	for attempt := 1; attempt <= c.maxAttempts(); attempt++ {
		c.teardown()
		time.Sleep(wait)
		if wait *= 2; wait > cap {
			wait = cap
		}
		if cerr := c.connect(!sendsInit); cerr != nil {
			lastErr = cerr
			continue
		}
		c.Reconnects++
		out, err = op(c.cur)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !IsTransient(err) {
			return nil, err
		}
	}
	return nil, &CouplingError{
		Class: ClassClosed,
		Op:    "reconnect",
		Err:   fmt.Errorf("gave up after %d attempts: %w", c.maxAttempts(), lastErr),
	}
}

// Exchange implements Coupling. The whole unit is retried as one
// operation, so a reconnect never splits a δ-window.
func (c *Reconnector) Exchange(msgs []ipc.Message) ([]ipc.Message, error) {
	sendsInit := false
	for _, m := range msgs {
		if m.Kind == ipc.KindInit {
			mm := m
			c.init = &mm
			sendsInit = true
		}
	}
	return c.do(sendsInit, func(r *Remote) ([]ipc.Message, error) {
		return r.Exchange(msgs)
	})
}

// Close implements Coupling.
func (c *Reconnector) Close() error {
	if c.cur == nil {
		return nil
	}
	err := c.cur.Close()
	c.cur = nil
	return err
}
