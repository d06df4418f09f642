//go:build !amd64

package query

// prefetch is a no-op off amd64: evaluation is then fed by the
// hardware prefetcher alone.
func prefetch(*float32, int) {}
