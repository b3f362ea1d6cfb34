package cosim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"castanet/internal/ipc"
)

// ErrorClass partitions coupling failures into the four failure domains
// of the link: each calls for a different reaction (retry the run, abort,
// clean shutdown, bug report).
type ErrorClass int

const (
	// ClassTimeout: the peer did not answer within the configured
	// interval — watchdog expiry or retransmit exhaustion. The link, not
	// the design, failed: a campaign supervisor may retry the run.
	ClassTimeout ErrorClass = iota
	// ClassClosed: the link was torn down (locally or by the peer).
	// Retryable in the same sense.
	ClassClosed
	// ClassCorrupt: a frame failed validation and no reliability envelope
	// was there to recover it. Results downstream are suspect.
	ClassCorrupt
	// ClassProtocol: the peer answered with something the protocol does
	// not allow (undeclared kind, entity rejection, causality violation).
	// Never retried — retrying resends the same poison.
	ClassProtocol
)

// String implements fmt.Stringer.
func (c ErrorClass) String() string {
	switch c {
	case ClassTimeout:
		return "timeout"
	case ClassClosed:
		return "closed"
	case ClassCorrupt:
		return "corrupt"
	case ClassProtocol:
		return "protocol"
	}
	return fmt.Sprintf("ErrorClass(%d)", int(c))
}

// CouplingError is the structured failure type of the coupling layer: a
// class for dispatch, the operation that failed, and the underlying
// cause. It replaces the stringly errors that previously leaked out of
// Remote and EntityServer.
type CouplingError struct {
	Class ErrorClass
	Op    string // "send", "recv", "serve", "entity", "run"
	Err   error
}

// Error implements error.
func (e *CouplingError) Error() string {
	return fmt.Sprintf("cosim: coupling %s during %s: %v", e.Class, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CouplingError) Unwrap() error { return e.Err }

// Classify maps an underlying transport or protocol error to its class.
func Classify(err error) ErrorClass {
	switch {
	case errors.Is(err, ipc.ErrTimeout):
		return ClassTimeout
	case errors.Is(err, ipc.ErrClosed), errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return ClassClosed
	case errors.Is(err, ipc.ErrBadFrame):
		return ClassCorrupt
	default:
		// Network-stack failures (reset, refused, timeout) count as link
		// loss: the message never legally arrived.
		var ne net.Error
		if errors.As(err, &ne) {
			if ne.Timeout() {
				return ClassTimeout
			}
			return ClassClosed
		}
		var oe *net.OpError
		if errors.As(err, &oe) {
			return ClassClosed
		}
		return ClassProtocol
	}
}

// coupErr wraps err as a CouplingError unless it already is one.
func coupErr(op string, err error) error {
	var ce *CouplingError
	if errors.As(err, &ce) {
		return err
	}
	return &CouplingError{Class: Classify(err), Op: op, Err: err}
}

// Retryable reports whether a failed run may be re-attempted by a
// supervisor: the failure came from the infrastructure (a hung or torn
// link), not from the design under verification. A verification mismatch
// is the product, not noise, so ClassCorrupt, ClassProtocol and every
// untyped error are final. A supervision deadline (context.DeadlineExceeded)
// is retryable: a hung run is infrastructure too.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ce *CouplingError
	if errors.As(err, &ce) {
		return ce.Class == ClassTimeout || ce.Class == ClassClosed
	}
	return false
}
