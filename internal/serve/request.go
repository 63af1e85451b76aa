package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"casvm/internal/la"
)

// PredictRequest is the wire form of one prediction call: a block of dense
// feature vectors for one named model. Batching happens *below* this layer —
// the server coalesces many concurrent requests into one tile evaluation —
// but a request may itself carry many queries, which is how high-throughput
// clients amortise HTTP and JSON overhead.
//
// Queries travel in one of two encodings:
//
//   - Queries: a plain JSON array of arrays — interop-friendly; a 1×64 row
//     decodes in ≈ 9 µs (16 µs through encoding/json);
//   - QueriesB64 + FeatureDim: base64 of little-endian float64 values,
//     row-major — the production client path: a 256×64 block decodes in
//     ≈ 0.08 ms on AVX2 (≈ 0.32 ms without) into a pooled 128 KB query
//     block, unzeroed, so a served request allocates no query-sized buffer
//     (1.0 ms and 312 KB through encoding/json).
//     FeatureDim gives the row width (the flat value count must divide by
//     it); row count is inferred.
//
// Exactly one of the two must be present. Queries and QueriesB64 are the
// client's side of the wire: a request DecodePredictRequest returns carries
// its queries only in validated flat form and leaves both empty.
type PredictRequest struct {
	// Model names the registry entry ("" selects the sole model when only
	// one is loaded, otherwise "default").
	Model string `json:"model,omitempty"`
	// Queries holds one dense feature vector per prediction. Every row must
	// have the same width; the server additionally checks it against the
	// model's feature count.
	Queries [][]float64 `json:"queries,omitempty"`
	// QueriesB64 is the binary alternative: base64(row-major little-endian
	// float64). Requires FeatureDim.
	QueriesB64 string `json:"queries_b64,omitempty"`
	// FeatureDim is the row width of QueriesB64.
	FeatureDim int `json:"features,omitempty"`
	// Decisions asks for the real-valued routed decision Σ αyK − B per
	// query alongside the ±1 labels.
	Decisions bool `json:"decisions,omitempty"`

	// Validated flat form, filled by DecodePredictRequest. A pooled decode
	// (the server's) draws flat from queryBlocks; block is then the pooled
	// buffer behind it, nil when flat was made fresh.
	flat        []float64
	block       *[]float64
	pooled      bool
	rows, width int
}

// queryBlocks recycles the query blocks requests decode into, each a
// *[]float64 at its full capacity. A block is drawn by the decoder and put
// back by releaseBlock exactly once, at the point Batcher.Predict names.
var queryBlocks sync.Pool

// drawBlock returns an empty query block of capacity exactly n — so the
// base64 lanes, which write up to cap, keep their exact bound — and the
// pooled buffer behind it. A pooled request takes an unzeroed block from
// queryBlocks when one is large enough; otherwise the block is fresh and the
// buffer nil.
func (r *PredictRequest) drawBlock(n int) ([]float64, *[]float64) {
	if r.pooled {
		if p, _ := queryBlocks.Get().(*[]float64); p != nil && cap(*p) >= n {
			return (*p)[:0:n], p
		}
	}
	return make([]float64, 0, n), nil
}

// releaseBlock returns the query block flat, drawn with buffer p, to the
// pool. After it, flat may be handed to another request at any moment.
func releaseBlock(flat []float64, p *[]float64) {
	if p == nil { // fresh: flat holds the whole allocation
		p = new([]float64)
		*p = flat
	}
	queryBlocks.Put(p)
}

// PredictResponse answers a PredictRequest.
type PredictResponse struct {
	Model      string    `json:"model"`
	Generation uint64    `json:"generation"` // registry generation that served the batch
	Labels     []float64 `json:"labels"`
	Decisions  []float64 `json:"decisions,omitempty"`
	BatchSize  int       `json:"batch_size"` // total queries in the coalesced tile batch
}

// Limits bounds what a request may ask for before any model state is
// consulted; the decoder enforces them so malformed or hostile payloads are
// rejected without allocating model-sized buffers.
type Limits struct {
	// MaxQueries caps queries per request (≤ 0 selects 4096).
	MaxQueries int
	// MaxFeatures caps the row width (≤ 0 selects 65536); the model match
	// is checked later, this only guards the decoder.
	MaxFeatures int
	// MaxBody caps the request body in bytes (≤ 0 selects 32 MiB).
	MaxBody int64
}

// Defaulted returns lim with zero fields resolved to their defaults.
func (lim Limits) Defaulted() Limits {
	if lim.MaxQueries <= 0 {
		lim.MaxQueries = 4096
	}
	if lim.MaxFeatures <= 0 {
		lim.MaxFeatures = 65536
	}
	if lim.MaxBody <= 0 {
		lim.MaxBody = 32 << 20
	}
	return lim
}

// DecodePredictRequest parses and validates a JSON prediction request in one
// forward pass over data. Every accepted request satisfies: 1 ≤ NumQueries ≤
// MaxQueries, all rows share one width in [1, MaxFeatures], and every value
// is finite (binary payloads can smuggle NaN/Inf bit patterns; none may reach
// the kernel, where a single NaN would poison a whole coalesced batch).
//
// It accepts the bodies json.Unmarshal into a PredictRequest accepts, with
// the same values — keys match case-insensitively, the last duplicate wins,
// null leaves a string, number or bool field as it was and clears queries,
// any other key's value is validated and skipped — with one exception: a
// null feature is refused, where encoding/json would serve it as 0. A JSON
// array is checked against the limits before anything is stored, then parsed
// number by number into the flat buffer; a queries_b64 string is
// base64-decoded out of data itself, unquoted first only if it holds an
// escape. The queries land in fresh storage the caller owns.
func DecodePredictRequest(data []byte, lim Limits) (*PredictRequest, error) {
	return decodeRequest(data, lim, false)
}

// decodeRequest is DecodePredictRequest; a pooled request's queries are
// decoded into a block drawn from queryBlocks.
func decodeRequest(data []byte, lim Limits, pooled bool) (*PredictRequest, error) {
	lim = lim.Defaulted()
	if int64(len(data)) > lim.MaxBody {
		return nil, fmt.Errorf("serve: request body %d bytes exceeds limit %d", len(data), lim.MaxBody)
	}
	req := &PredictRequest{pooled: pooled}
	p := reqParser{b: data, lim: lim}
	if err := p.object(req); err != nil {
		return nil, err
	}
	switch q := &p.queries; {
	case q.rows > 0 && len(p.b64) > 0:
		return nil, fmt.Errorf("serve: request has both queries and queries_b64")
	case p.b64Raw && len(p.b64) > 0: // queriesB64 refused its CR and LF
		if err := req.decodeB64(p.b64, 0, lim); err != nil {
			return nil, err
		}
	case len(p.b64) > 0:
		if err := req.decodeBinary(p.b64, lim); err != nil {
			return nil, err
		}
	case q.rows > 0:
		if q.err != nil {
			return nil, q.err
		}
		req.flat, req.block, req.rows, req.width = q.flat, q.block, q.rows, q.width
	default:
		return nil, fmt.Errorf("serve: request has no queries")
	}
	return req, nil
}

// maxDepth is encoding/json's nesting limit, kept so that the set of bodies
// accepted stays exactly json.Unmarshal's.
const maxDepth = 10000

// reqParser is DecodePredictRequest's pass over one body; b[i] is the next
// byte to read. The two query fields are held until the object closes,
// because a later duplicate key may still replace either.
type reqParser struct {
	b   []byte
	i   int
	lim Limits

	// b64 is the last queries_b64 string: a sub-slice of b (b64Raw), or
	// its unquoted copy when it held an escape.
	b64    []byte
	b64Raw bool
	// queries is the last "queries" array.
	queries queryArrays
}

// queryArrays is one "queries" value in flat form. A row past MaxQueries, a
// width outside [1, MaxFeatures], a ragged row or a null feature sets err,
// and the value is still walked to its end — a type or syntax error anywhere
// rejects the body, even in a value a duplicate key replaces — but never
// stored.
type queryArrays struct {
	flat        []float64
	block       *[]float64 // flat's pooled buffer, as in PredictRequest
	rows, width int
	err         error
}

func (q *queryArrays) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// bad reports a body encoding/json would refuse too: malformed JSON, or a
// value of the wrong type for its field.
func (p *reqParser) bad(what string) error {
	return fmt.Errorf("serve: bad request JSON: %s at offset %d", what, p.i)
}

func (p *reqParser) space() {
	for ; p.i < len(p.b); p.i++ {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *reqParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// word consumes the literal w if it comes next; the caller's check for the
// delimiter after it refuses "nullx".
func (p *reqParser) word(w string) bool {
	if len(p.b)-p.i >= len(w) && string(p.b[p.i:p.i+len(w)]) == w {
		p.i += len(w)
		return true
	}
	return false
}

func (p *reqParser) null() bool { return p.word("null") }

// object reads the request object, which with surrounding whitespace must
// be all of b.
func (p *reqParser) object(r *PredictRequest) error {
	p.space()
	if !p.eat('{') {
		return p.bad("request is not a JSON object")
	}
	p.space()
	for n := 0; !p.eat('}'); n++ {
		if n > 0 {
			if !p.eat(',') {
				return p.bad("want , or } after an object member")
			}
			p.space()
		}
		if err := p.member(r); err != nil {
			return err
		}
		p.space()
	}
	p.space()
	if p.i != len(p.b) {
		return p.bad("data after the request object")
	}
	return nil
}

// member reads one key and its value, matching the key to a field as
// encoding/json does (bytes.EqualFold is its folding rule).
func (p *reqParser) member(r *PredictRequest) error {
	key, err := p.text()
	if err != nil {
		return err
	}
	p.space()
	if !p.eat(':') {
		return p.bad("want : after an object key")
	}
	p.space()
	switch {
	case bytes.EqualFold(key, []byte("queries_b64")):
		return p.queriesB64()
	case bytes.EqualFold(key, []byte("queries")):
		return p.arrays(r)
	case bytes.EqualFold(key, []byte("features")):
		return p.scalar(&r.FeatureDim)
	case bytes.EqualFold(key, []byte("model")):
		return p.scalar(&r.Model)
	case bytes.EqualFold(key, []byte("decisions")):
		return p.scalar(&r.Decisions)
	}
	return p.skip(1)
}

// scalar reads a small field's value with encoding/json, whose rules for
// strings, ints, booleans and null are the ones to keep, handing it exactly
// the value's bytes.
func (p *reqParser) scalar(dst any) error {
	at := p.i
	if err := p.skip(1); err != nil {
		return err
	}
	if err := json.Unmarshal(p.b[at:p.i], dst); err != nil {
		return p.bad(err.Error())
	}
	return nil
}

// str reads a string and returns its contents as written, and whether they
// hold an escape. It checks what encoding/json's scanner checks: no control
// character, and only the escapes JSON defines.
func (p *reqParser) str() (lit []byte, escaped bool, err error) {
	if !p.eat('"') {
		return nil, false, p.bad("want a string")
	}
	start := p.i
	for b := p.b; p.i < len(b); p.i++ {
		switch c := b[p.i]; {
		case c == '"':
			p.i++
			return b[start : p.i-1], escaped, nil
		case c == '\\':
			escaped = true
			switch {
			case p.i+1 < len(b) && strings.IndexByte(`"\/bfnrt`, b[p.i+1]) >= 0:
				p.i++
			case p.i+5 < len(b) && b[p.i+1] == 'u' && isHex4(b[p.i+2:p.i+6]):
				p.i += 5
			default:
				return nil, false, p.bad("invalid escape in string")
			}
		case c < 0x20:
			return nil, false, p.bad("control character in string")
		}
	}
	return nil, false, p.bad("unterminated string")
}

func isHex4(h []byte) bool {
	for _, c := range h {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// text reads a string and returns its value: the bytes as written when they
// hold no escape and are valid UTF-8, otherwise what encoding/json makes of
// them (escapes resolved, bad UTF-8 and lone surrogates as U+FFFD).
func (p *reqParser) text() ([]byte, error) {
	at := p.i
	lit, escaped, err := p.str()
	if err != nil || !escaped && utf8.Valid(lit) {
		return lit, err
	}
	var s string
	if err := json.Unmarshal(p.b[at:p.i], &s); err != nil {
		return nil, p.bad(err.Error())
	}
	return []byte(s), nil
}

// queriesB64 reads a queries_b64 value. A string with no escape — what every
// client's encoder writes — is taken as the body bytes between its quotes,
// found in one walk (la.QuotedSpan) and not copied. A raw CR or LF there is
// invalid JSON that base64 would skip, so it is refused here; every other
// control character base64 refuses itself, so that check is left to the
// decoder, or made here if a later duplicate replaces the string undecoded.
func (p *reqParser) queriesB64() error {
	if p.null() {
		return nil
	}
	if p.b64Raw && bytes.ContainsFunc(p.b64, func(r rune) bool { return r < 0x20 }) {
		return p.bad("control character in an earlier queries_b64")
	}
	if p.i < len(p.b) && p.b[p.i] == '"' {
		s := p.b[p.i+1:]
		if n, ctl := la.QuotedSpan(s); n < len(s) && s[n] == '"' {
			if ctl {
				return p.bad("control character in string")
			}
			p.i += n + 2
			p.b64, p.b64Raw = s[:n], true
			return nil
		}
	}
	s, err := p.text()
	p.b64, p.b64Raw = s, false
	return err
}

// arrays reads a "queries" value, an array of rows of numbers, in two walks
// over its bytes. The first checks it all — JSON grammar, every number's
// range, the row count, row 0's width, raggedness, null features — and
// stores nothing, so a value over a limit is refused having allocated
// nothing. Only a value that passes is walked again, parsed straight into a
// query block drawn once at its exact size. A null clears the field, as
// encoding/json sets a slice to nil.
func (p *reqParser) arrays(r *PredictRequest) error {
	q := &p.queries
	*q = queryArrays{}
	if p.null() {
		return nil
	}
	at := p.i
	if err := p.rows(q, false); err != nil || q.err != nil {
		return err
	}
	p.i = at
	q.flat, q.block = r.drawBlock(q.rows * q.width)
	return p.rows(q, true)
}

// rows walks the array of queries at p.i, appending each value to q.flat if
// store is set.
func (p *reqParser) rows(q *queryArrays, store bool) error {
	if !p.eat('[') {
		return p.bad("queries is not an array")
	}
	p.space()
	for q.rows = 0; !p.eat(']'); q.rows++ {
		if q.rows > 0 {
			if !p.eat(',') {
				return p.bad("want , or ] after a query")
			}
			p.space()
		}
		if err := p.row(q, store); err != nil {
			return err
		}
		p.space()
	}
	return nil
}

// row reads query q.rows; a null row is an empty one.
func (p *reqParser) row(q *queryArrays, store bool) error {
	k := q.rows
	if k == p.lim.MaxQueries {
		q.fail(fmt.Errorf("serve: more than %d queries", p.lim.MaxQueries))
	}
	n := 0
	if !p.null() {
		if !p.eat('[') {
			return p.bad(fmt.Sprintf("query %d is not an array", k))
		}
		p.space()
		for ; !p.eat(']'); n++ {
			if n > 0 {
				if !p.eat(',') {
					return p.bad(fmt.Sprintf("want , or ] after query %d feature %d", k, n-1))
				}
				p.space()
			}
			if err := p.feature(q, k, n, store); err != nil {
				return err
			}
			p.space()
		}
	}
	switch {
	case k == 0:
		q.width = n
		if n < 1 || n > p.lim.MaxFeatures {
			q.fail(fmt.Errorf("serve: query width %d outside [1, %d]", n, p.lim.MaxFeatures))
		}
	case n != q.width:
		q.fail(fmt.Errorf("serve: query %d has %d features, query 0 has %d", k, n, q.width))
	}
	return nil
}

// feature reads value n of query k. The checking walk parses only a literal
// that can be out of range: one with an exponent or 309 or more bytes, since
// without an exponent fewer than 309 digits stay below 1e308, under
// float64's largest value (≈ 1.8e308).
func (p *reqParser) feature(q *queryArrays, k, n int, store bool) error {
	if p.null() {
		q.fail(fmt.Errorf("serve: query %d feature %d is null", k, n))
		return nil
	}
	lit, err := p.number()
	if err != nil {
		return err
	}
	if !store && len(lit) < 309 && bytes.IndexByte(lit, 'e') < 0 && bytes.IndexByte(lit, 'E') < 0 {
		return nil
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil { // grammar checked: out of float64 range
		return p.bad(fmt.Sprintf("query %d feature %d %s out of range", k, n, lit))
	}
	if store {
		q.flat = append(q.flat, v)
	}
	return nil
}

// number reads a number in JSON's grammar — an optional minus, no leading
// zero or plus, digits on both sides of a point and after an exponent — and
// returns it as written.
func (p *reqParser) number() ([]byte, error) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, p.bad("want a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits(b, i) == i {
			return nil, p.bad("want a digit after the point")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits(b, i) == i {
			return nil, p.bad("want a digit in the exponent")
		}
		i = digits(b, i)
	}
	lit := b[p.i:i]
	p.i = i
	return lit, nil
}

// digits returns the end of the run of decimal digits at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skip validates and passes over a value no field takes, inside containers
// nested depth deep (the request object is depth 1).
func (p *reqParser) skip(depth int) error {
	if p.i == len(p.b) {
		return p.bad("unexpected end of body")
	}
	switch c := p.b[p.i]; c {
	case '"':
		_, _, err := p.str()
		return err
	case '{', '[':
		if depth == maxDepth {
			return p.bad(fmt.Sprintf("nested deeper than %d", maxDepth))
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		p.i++
		p.space()
		for n := 0; !p.eat(end); n++ {
			if n > 0 {
				if !p.eat(',') {
					return p.bad(fmt.Sprintf("want , or %c", end))
				}
				p.space()
			}
			if c == '{' {
				if _, _, err := p.str(); err != nil {
					return err
				}
				p.space()
				if !p.eat(':') {
					return p.bad("want : after an object key")
				}
				p.space()
			}
			if err := p.skip(depth + 1); err != nil {
				return err
			}
			p.space()
		}
		return nil
	case 't', 'f', 'n':
		if p.word("true") || p.word("false") || p.null() {
			return nil
		}
		return p.bad("invalid literal")
	}
	_, err := p.number()
	return err
}

// b64Chunk is how many base64 characters decodeBinary decodes per step: a
// whole number of 4-character quanta whose 3072 decoded bytes are a whole
// number of float64 values, small enough for both buffers to live on the stack.
const b64Chunk = 4096

// decodeBinary validates the base64 binary form s and decodes it straight
// into flat, a chunk at a time, refusing a NaN or Inf as it meets one; a
// chunk without newlines goes to la.DecodeBase64F64's AVX2 lanes first. The
// row count and divisibility are settled from the encoded length and the
// trailing padding before a query block is drawn, so a payload that cannot
// be accepted costs no query-sized buffer; whatever that arithmetic assumed
// about the payload being well-formed the chunk decoder then verifies.
// Accepts exactly what base64.StdEncoding.Decode does, CR and LF anywhere
// included.
func (r *PredictRequest) decodeBinary(s []byte, lim Limits) error {
	return r.decodeB64(s, bytes.Count(s, []byte{'\n'})+bytes.Count(s, []byte{'\r'}), lim)
}

// decodeB64 is decodeBinary for an s holding exactly newlines CRs and LFs.
func (r *PredictRequest) decodeB64(s []byte, newlines int, lim Limits) error {
	if r.FeatureDim < 1 || r.FeatureDim > lim.MaxFeatures {
		return fmt.Errorf("serve: features %d outside [1, %d] (required with queries_b64)", r.FeatureDim, lim.MaxFeatures)
	}
	pad := 0
	for end := len(s); end > 0 && pad < 2; end-- {
		if c := s[end-1]; c == '=' {
			pad++
		} else if c != '\n' && c != '\r' {
			break
		}
	}
	nbytes := base64.StdEncoding.DecodedLen(len(s)-newlines) - pad
	if nbytes <= 0 || nbytes%8 != 0 {
		return fmt.Errorf("serve: queries_b64 decodes to %d bytes, not a positive multiple of 8", max(nbytes, 0))
	}
	n := nbytes / 8
	if n%r.FeatureDim != 0 {
		return fmt.Errorf("serve: %d values do not divide into rows of %d features", n, r.FeatureDim)
	}
	rows := n / r.FeatureDim
	if rows > lim.MaxQueries {
		return fmt.Errorf("serve: %d queries exceeds limit %d", rows, lim.MaxQueries)
	}

	flat, block := r.drawBlock(n)
	var enc [b64Chunk]byte
	var dec [b64Chunk / 4 * 3]byte
	for i := 0; i < len(s); {
		at := i
		var chunk []byte
		if newlines == 0 {
			chunk = s[i:min(i+b64Chunk, len(s))]
			i += len(chunk)
			// The lanes decode a whole chunk of alphabet characters and
			// finite values straight into flat. The loop below decodes any
			// other chunk, and every chunk with the lanes off, from its
			// start, so a bad chunk is refused with the loop's error, found
			// in the loop's order.
			if len(chunk) == b64Chunk {
				if k := la.DecodeBase64F64(flat[len(flat):cap(flat)], chunk); k == len(dec)/8 {
					flat = flat[:len(flat)+k]
					continue
				}
			}
		} else {
			// Runs past the newlines behind a full buffer too, so "last
			// chunk" below means the last with anything in it.
			m := 0
			for ; i < len(s); i++ {
				c := s[i]
				if c == '\n' || c == '\r' {
					continue
				}
				if m == len(enc) {
					break
				}
				enc[m] = c
				m++
			}
			chunk = enc[:m]
		}
		nd, err := base64.StdEncoding.Decode(dec[:], chunk)
		// Padding is legal only at the very end: a chunk that is not the
		// last must decode in full.
		if err == nil && i < len(s) && nd != len(chunk)/4*3 {
			err = base64.CorruptInputError(0)
		}
		if err != nil {
			var corrupt base64.CorruptInputError
			if newlines == 0 && errors.As(err, &corrupt) {
				err = corrupt + base64.CorruptInputError(at) // offset in the payload, not the chunk
			}
			return fmt.Errorf("serve: bad queries_b64: %w", err)
		}
		for j := 0; j+8 <= nd; j += 8 {
			bits := binary.LittleEndian.Uint64(dec[j:])
			if bits&(0x7ff<<52) == 0x7ff<<52 { // all-ones exponent: Inf or NaN
				k := len(flat)
				return fmt.Errorf("serve: query %d feature %d is not finite", k/r.FeatureDim, k%r.FeatureDim)
			}
			flat = append(flat, math.Float64frombits(bits))
		}
	}
	if len(flat) != n { // the length arithmetic and the decoder must agree
		return fmt.Errorf("serve: bad queries_b64: %w", base64.CorruptInputError(len(s)))
	}
	r.flat, r.block, r.rows, r.width = flat, block, rows, r.FeatureDim
	return nil
}

// EncodeQueriesB64 packs a row-major flat query block into the binary wire
// form (the client-side counterpart of decodeBinary).
func EncodeQueriesB64(flat []float64) string {
	raw := make([]byte, 8*len(flat))
	la.PutF64s(raw, flat)
	return base64.StdEncoding.EncodeToString(raw)
}

// NumQueries returns the number of query rows of a validated request.
func (r *PredictRequest) NumQueries() int { return r.rows }

// Features returns the (uniform) row width of a validated request.
func (r *PredictRequest) Features() int { return r.width }

// flatten returns the queries as one row-major buffer.
func (r *PredictRequest) flatten() []float64 { return r.flat }
