package explore

import "strings"

// Digest renders WriteDigest to a string (test convenience).
func (r *Result) Digest() string {
	var b strings.Builder
	r.WriteDigest(&b)
	return b.String()
}
