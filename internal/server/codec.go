package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"gqr"
)

// This file is the request and response codec of the four body-carrying
// routes (/search, /batch, /add, PUT /vector/{id}); DESIGN.md §8j.
//
// Requests: the body is read whole into a pooled buffer and offered to
// a strict single-pass scanner that knows only the plain shape — the
// route's own keys, spelled exactly, each at most once, no escapes, no
// nulls, JSON's number grammar. The scanner has no error path: on
// anything else it declines, and the same bytes go through
// encoding/json exactly as they always did. encoding/json therefore
// remains the one definition of which bodies are accepted and the one
// source of every error message, and FuzzDecodeRequest holds the
// scanner to it. Numbers are converted by the strconv calls
// encoding/json itself makes, so accepted values are bit-identical.
//
// Responses: an append-based encoder writes the neighbor lists byte for
// byte as encoding/json would; the stats and batch sub-objects and every
// string stay with json.Marshal.

const (
	// maxBatchQueries bounds one /batch request: beyond it the request
	// is a 400 before anything is allocated per query.
	maxBatchQueries = 1024
	// A body may spend bodyBytesPerComponent on every vector component
	// (a float32 prints in at most 16) plus bodySlack on everything
	// else; /batch gets that maxBatchQueries times over.
	bodyBytesPerComponent = 64
	bodySlack             = 4 << 10
	// maxPooledBuffer is the largest buffer the pool keeps, so that one
	// large /batch cannot pin its memory for the life of the process.
	maxPooledBuffer = 1 << 20
)

// bodyLimit is the request-body cap of the single-vector routes.
func bodyLimit(dim int) int64 { return int64(dim)*bodyBytesPerComponent + bodySlack }

// buffer holds one request's body and then, once that is decoded, its
// response.
type buffer struct{ b []byte }

var bufferPool = sync.Pool{New: func() any { return new(buffer) }}

func getBuffer() *buffer { return bufferPool.Get().(*buffer) }

func putBuffer(buf *buffer) {
	if cap(buf.b) <= maxPooledBuffer {
		bufferPool.Put(buf)
	}
}

// readBody reads r's whole body, at most limit bytes of it, into buf. On
// failure it has written the error response — 413 past the limit — and
// returns false.
func (h *Handler) readBody(w http.ResponseWriter, r *http.Request, buf *buffer, limit int64) bool {
	const tooLarge = "request body exceeds %d bytes"
	if r.ContentLength > limit {
		h.httpError(w, http.StatusRequestEntityTooLarge, tooLarge, limit)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	b := buf.b[:0]
	if n := r.ContentLength; n >= int64(cap(b)) {
		b = make([]byte, 0, n+1) // one spare byte for the read that reports EOF
	}
	var err error
	for err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	buf.b = b
	if err == io.EOF {
		return true
	}
	if limitErr := new(*http.MaxBytesError); errors.As(err, limitErr) {
		h.httpError(w, http.StatusRequestEntityTooLarge, tooLarge, limit)
	} else {
		// What json.Decoder made of a body that failed under it.
		h.httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
	}
	return false
}

// decodeStd is the request path of record: what every handler did
// before the scanner, and still does with every body it declines. It
// decodes into a value of its own, so that the caller's request does
// not move to the heap for encoding/json's sake on the plain path.
func decodeStd[T any](b []byte, req *T) error {
	var v T
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&v)
	*req = v
	return err
}

// decodeSearch decodes a /search body. dim sizes the query's allocation
// and is no validation.
func decodeSearch(b []byte, req *SearchRequest, dim int) error {
	s := scanner{b: b}
	var p searchParams
	if !s.object(func(key []byte) (ok bool) {
		if string(key) == "query" {
			req.Query, ok = s.floats(make([]float32, 0, dim))
			return s.once(fVector) && ok
		}
		return s.param(key, &p)
	}) {
		return decodeStd(b, req)
	}
	req.K, req.MaxCandidates, req.MaxBuckets = p.k, p.maxCand, p.maxBuckets
	req.Radius, req.EarlyStop, req.TagMask, req.IncludeStats = p.radius, p.earlyStop, p.tagMask, p.stats
	return nil
}

// decodeBatch decodes a /batch body. When flat is not nil the queries
// are consecutive sub-slices of it, in order: a batch whose queries all
// have the index's dimension is then searched in place.
func decodeBatch(b []byte, req *BatchRequest, dim int) (flat []float32, err error) {
	s := scanner{b: b}
	var p searchParams
	if !s.object(func(key []byte) (ok bool) {
		if string(key) == "queries" {
			flat, req.Queries, ok = s.batchQueries(dim)
			return s.once(fVector) && ok
		}
		return s.param(key, &p)
	}) {
		return nil, decodeStd(b, req)
	}
	req.K, req.MaxCandidates, req.MaxBuckets = p.k, p.maxCand, p.maxBuckets
	req.Radius, req.EarlyStop, req.TagMask, req.IncludeStats = p.radius, p.earlyStop, p.tagMask, p.stats
	return flat, nil
}

// decodeAdd decodes an /add body.
func decodeAdd(b []byte, req *AddRequest, dim int) error {
	if !scanVector(b, &req.Vector, &req.Meta, dim) {
		return decodeStd(b, req)
	}
	return nil
}

// decodeUpdate decodes a PUT /vector/{id} body.
func decodeUpdate(b []byte, req *UpdateRequest, dim int) error {
	if !scanVector(b, &req.Vector, nil, dim) {
		return decodeStd(b, req)
	}
	return nil
}

// scanVector scans {"vector":[...],"meta":n}; a nil meta makes "meta"
// one more key the scanner does not know.
func scanVector(b []byte, vec *[]float32, meta *uint64, dim int) bool {
	s := scanner{b: b}
	return s.object(func(key []byte) (ok bool) {
		switch {
		case string(key) == "vector":
			*vec, ok = s.floats(make([]float32, 0, dim))
			return s.once(fVector) && ok
		case string(key) == "meta" && meta != nil:
			*meta, ok = s.uint64()
			return s.once(fMeta) && ok
		}
		return false
	})
}

// One bit per key a body may carry, for scanner.once.
const (
	fVector = 1 << iota // query, queries or vector
	fK
	fMaxCandidates
	fMaxBuckets
	fRadius
	fEarlyStop
	fTagMask
	fIncludeStats
	fMeta
)

// scanner is a cursor over one request body. Every method reports
// false for "this is not the plain shape"; none reports why.
type scanner struct {
	b    []byte
	i    int
	seen uint // keys already met
}

// once marks key bit f as met and reports whether this was the first
// time: encoding/json lets a later duplicate overwrite an earlier one,
// which the scanner leaves to it.
func (s *scanner) once(f uint) bool {
	dup := s.seen&f != 0
	s.seen |= f
	return !dup
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat skips white space and consumes c if it is next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object walks the top-level object, calling member with each key and
// the cursor on the key's value. It stops at the closing brace: like
// json.Decoder, it does not look at what follows the first value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		// The raw bytes up to the next quote are compared with keys that
		// hold no quote and no backslash, so a key written with an escape
		// matches none of them.
		if !s.eat('"') {
			return false
		}
		end := bytes.IndexByte(s.b[s.i:], '"')
		if end < 0 {
			return false
		}
		key := s.b[s.i : s.i+end]
		s.i += end + 1
		if !s.eat(':') || !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// searchParams are the search parameters /search and /batch share, as
// param scans them.
type searchParams struct {
	k          int
	maxCand    int
	maxBuckets int
	radius     float64
	earlyStop  bool
	tagMask    uint64
	stats      bool
}

// param scans the value of one of the search parameters /search and
// /batch share.
func (s *scanner) param(key []byte, p *searchParams) (ok bool) {
	switch string(key) {
	case "k":
		p.k, ok = s.int()
		return s.once(fK) && ok
	case "maxCandidates":
		p.maxCand, ok = s.int()
		return s.once(fMaxCandidates) && ok
	case "maxBuckets":
		p.maxBuckets, ok = s.int()
		return s.once(fMaxBuckets) && ok
	case "radius":
		p.radius, ok = s.float64()
		return s.once(fRadius) && ok
	case "earlyStop":
		p.earlyStop, ok = s.bool()
		return s.once(fEarlyStop) && ok
	case "tagMask":
		p.tagMask, ok = s.uint64()
		return s.once(fTagMask) && ok
	case "includeStats":
		p.stats, ok = s.bool()
		return s.once(fIncludeStats) && ok
	}
	return false
}

// number consumes one literal of JSON's number grammar, which is
// stricter than what strconv parses (no "+1", ".5", "1.", "0x1", "Inf"),
// and reports whether it has neither fraction nor exponent.
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.space()
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	lit, s.i = b[s.i:i], i
	return lit, integer, true
}

func (s *scanner) int() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

func (s *scanner) uint64() (uint64, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	return n, err == nil
}

func (s *scanner) float64() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

func (s *scanner) bool() (v, ok bool) {
	s.space()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// floats appends the components of one array of numbers to dst. A
// component float32 cannot hold is encoding/json's error to report.
func (s *scanner) floats(dst []float32) ([]float32, bool) {
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		lit, _, ok := s.number()
		if !ok {
			return dst, false
		}
		f, err := strconv.ParseFloat(string(lit), 32)
		if err != nil {
			return dst, false
		}
		dst = append(dst, float32(f))
		if s.eat(']') {
			return dst, true
		}
		if !s.eat(',') {
			return dst, false
		}
	}
}

// batchQueries scans an array of arrays of numbers into one backing
// array and returns it with the queries, its consecutive sub-slices.
func (s *scanner) batchQueries(dim int) (flat []float32, queries [][]float32, ok bool) {
	// Every '[' but the outer one opens a query, in any body this scanner
	// goes on to accept: counting them sizes both allocations exactly
	// when the queries have the index's dimension, and declines an
	// oversized batch before anything is allocated for it.
	n := bytes.Count(s.b[s.i:], []byte{'['}) - 1
	if n > maxBatchQueries || !s.eat('[') {
		return nil, nil, false
	}
	n = max(n, 0)
	flat, queries = make([]float32, 0, n*dim), make([][]float32, 0, n)
	if s.eat(']') {
		return flat, queries, true
	}
	sized := cap(flat)
	for {
		start := len(flat)
		if flat, ok = s.floats(flat); !ok {
			return nil, nil, false
		}
		queries = append(queries, flat[start:len(flat):len(flat)])
		if s.eat(']') {
			break
		}
		if !s.eat(',') {
			return nil, nil, false
		}
	}
	if cap(flat) != sized {
		// A query longer than dim outgrew the estimate and flat moved:
		// point the queries scanned before the move at where it is now.
		off := 0
		for i, q := range queries {
			queries[i] = flat[off : off+len(q) : off+len(q)]
			off += len(q)
		}
	}
	return flat, queries, true
}

// appendNeighbors appends nbrs as encoding/json encodes a
// []NeighborJSON of them. A distance JSON cannot carry — NaN or ±Inf —
// is the error json.Marshal returns for it.
func appendNeighbors(dst []byte, nbrs []gqr.Neighbor) ([]byte, error) {
	dst = append(dst, '[')
	for i, nb := range nbrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(nb.ID), 10)
		dst = append(dst, `,"distance":`...)
		var err error
		if dst, err = appendFloat(dst, nb.Distance); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendFloat is encoding/json's float64 encoder: ES6 number-to-string,
// which is strconv's shortest 'f' form, or its 'e' form below 1e-6 and
// from 1e21 with a two-digit negative exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSON appends json.Marshal(v): the sub-values that are rare or
// hold strings are not worth a second encoder.
func appendJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// appendEntryError appends the BatchEntry of a query that failed alone.
func appendEntryError(dst []byte, msg string) []byte {
	dst = append(dst, `{"neighbors":null`...)
	if msg != "" { // the field is omitempty
		dst = append(dst, `,"error":`...)
		dst, _ = appendJSON(dst, msg) // no string fails to marshal
	}
	return append(dst, '}')
}

// appendID appends the {"id":n} reply of /add and PUT /vector/{id}.
func appendID(dst []byte, id int) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, "}\n"...)
}
