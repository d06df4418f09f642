package query

// prefetch asks the cache hierarchy for the n floats at p (PREFETCHT0,
// one per 64-byte line; prefetch_amd64.s). It is a hint: it reads and
// writes nothing the program can observe, and an address past the end
// of an allocation cannot fault. n must be positive.
//
//go:noescape
func prefetch(p *float32, n int)
