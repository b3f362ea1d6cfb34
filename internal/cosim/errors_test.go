package cosim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"castanet/internal/ipc"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"timeout", &CouplingError{Class: ClassTimeout, Op: "recv", Err: ipc.ErrTimeout}, true},
		{"closed", &CouplingError{Class: ClassClosed, Op: "send", Err: ipc.ErrClosed}, true},
		{"corrupt", &CouplingError{Class: ClassCorrupt, Op: "recv", Err: ipc.ErrBadFrame}, false},
		{"protocol", &CouplingError{Class: ClassProtocol, Op: "entity", Err: errors.New("undeclared kind")}, false},
		{"deadline", context.DeadlineExceeded, true},
		{"wrapped deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), true},
		{"cancel", context.Canceled, false},
		{"untyped mismatch", errors.New("acct mismatch: 3 != 4"), false},
		{"raw eof", io.EOF, false}, // untyped transport leak: final, a rig must type it
		{"wrapped coupling", fmt.Errorf("rig: %w", &CouplingError{Class: ClassTimeout, Op: "run", Err: ipc.ErrTimeout}), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRetryableNeverRetriesMismatchEvenWhenTransientLooking(t *testing.T) {
	// Classify maps untyped errors to a class; Retryable must not
	// consult it, so an untyped error that merely *looks* like a link
	// failure to Classify is still final for the retry budget.
	err := io.ErrUnexpectedEOF
	if c := Classify(err); c != ClassClosed {
		t.Fatalf("Classify(io.ErrUnexpectedEOF) = %v, want closed: the premise of this test changed", c)
	}
	if Retryable(err) {
		t.Fatal("untyped io.ErrUnexpectedEOF must not be Retryable")
	}
}
