package conformance

import (
	"fmt"
)

// Result is the outcome of replaying one vector against a device.
type Result struct {
	Vector *Vector
	Passed bool
	Detail string
}

// Evaluate checks a vector's outcome: delivered reports whether the
// device forwarded/accepted the cell.
func Evaluate(v *Vector, delivered bool) Result {
	switch {
	case v.ExpectDiscard && delivered:
		return Result{Vector: v, Passed: false,
			Detail: fmt.Sprintf("%s: device accepted a cell it must discard", v.Name)}
	case !v.ExpectDiscard && !delivered:
		return Result{Vector: v, Passed: false,
			Detail: fmt.Sprintf("%s: device dropped a conforming cell", v.Name)}
	default:
		return Result{Vector: v, Passed: true}
	}
}
