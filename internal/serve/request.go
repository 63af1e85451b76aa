package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
)

// PredictRequest is the wire form of one prediction call: a block of dense
// feature vectors for one named model. Batching happens *below* this layer —
// the server coalesces many concurrent requests into one tile evaluation —
// but a request may itself carry many queries, which is how high-throughput
// clients amortise HTTP and JSON overhead.
//
// Queries travel in one of two encodings:
//
//   - Queries: a plain JSON array of arrays — interop-friendly, but JSON
//     float parsing dominates server CPU at high load;
//   - QueriesB64 + FeatureDim: base64 of little-endian float64 values,
//     row-major — the production client path, ~10× cheaper to decode.
//     FeatureDim gives the row width (the flat value count must divide by
//     it); row count is inferred.
//
// Exactly one of the two must be present.
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

	// Validated flat form, filled by DecodePredictRequest.
	flat        []float64
	rows, width int
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

// DecodePredictRequest parses and validates a JSON prediction request.
// Every accepted request satisfies: 1 ≤ NumQueries ≤ MaxQueries, all rows
// share one width in [1, MaxFeatures], and every value is finite (binary
// payloads can smuggle NaN/Inf bit patterns; none may reach the kernel,
// where a single NaN would poison a whole coalesced batch).
func DecodePredictRequest(data []byte, lim Limits) (*PredictRequest, error) {
	lim = lim.Defaulted()
	if int64(len(data)) > lim.MaxBody {
		return nil, fmt.Errorf("serve: request body %d bytes exceeds limit %d", len(data), lim.MaxBody)
	}
	var req PredictRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("serve: bad request JSON: %w", err)
	}
	switch {
	case len(req.Queries) > 0 && req.QueriesB64 != "":
		return nil, fmt.Errorf("serve: request has both queries and queries_b64")
	case req.QueriesB64 != "":
		if err := req.decodeBinary(lim); err != nil {
			return nil, err
		}
	case len(req.Queries) > 0:
		if err := req.decodeArrays(lim); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("serve: request has no queries")
	}
	for i, v := range req.flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("serve: query %d feature %d is not finite", i/req.width, i%req.width)
		}
	}
	return &req, nil
}

// decodeArrays validates the JSON array-of-arrays form and flattens it.
func (r *PredictRequest) decodeArrays(lim Limits) error {
	if len(r.Queries) > lim.MaxQueries {
		return fmt.Errorf("serve: %d queries exceeds limit %d", len(r.Queries), lim.MaxQueries)
	}
	width := len(r.Queries[0])
	if width < 1 || width > lim.MaxFeatures {
		return fmt.Errorf("serve: query width %d outside [1, %d]", width, lim.MaxFeatures)
	}
	flat := make([]float64, 0, len(r.Queries)*width)
	for i, q := range r.Queries {
		if len(q) != width {
			return fmt.Errorf("serve: query %d has %d features, query 0 has %d", i, len(q), width)
		}
		flat = append(flat, q...)
	}
	r.flat, r.rows, r.width = flat, len(r.Queries), width
	return nil
}

// b64Chunk is how many base64 characters decodeBinary decodes per step: a
// whole number of 4-character quanta whose 3072 decoded bytes are a whole
// number of float64 values, small enough for both buffers to live on the stack.
const b64Chunk = 4096

// decodeBinary validates the base64 binary form and decodes it straight into
// flat, a chunk at a time. The row count and divisibility are settled from
// the encoded length and the trailing padding before flat is allocated, so a
// payload that cannot be accepted costs no query-sized buffer; whatever that
// arithmetic assumed about the payload being well-formed the chunk decoder
// then verifies. Accepts exactly what base64.StdEncoding.DecodeString does,
// CR and LF anywhere included.
func (r *PredictRequest) decodeBinary(lim Limits) error {
	if r.FeatureDim < 1 || r.FeatureDim > lim.MaxFeatures {
		return fmt.Errorf("serve: features %d outside [1, %d] (required with queries_b64)", r.FeatureDim, lim.MaxFeatures)
	}
	s := r.QueriesB64
	newlines := strings.Count(s, "\n") + strings.Count(s, "\r")
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

	flat := make([]float64, 0, n)
	var enc [b64Chunk]byte
	var dec [b64Chunk / 4 * 3]byte
	for i := 0; i < len(s); {
		at := i
		m := 0
		if newlines == 0 {
			m = copy(enc[:], s[i:])
			i += m
		} else {
			// Runs past the newlines behind a full buffer too, so "last
			// chunk" below means the last with anything in it.
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
		}
		nd, err := base64.StdEncoding.Decode(dec[:], enc[:m])
		// Padding is legal only at the very end: a chunk that is not the
		// last must decode in full.
		if err == nil && i < len(s) && nd != m/4*3 {
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
			flat = append(flat, math.Float64frombits(binary.LittleEndian.Uint64(dec[j:])))
		}
	}
	if len(flat) != n { // the length arithmetic and the decoder must agree
		return fmt.Errorf("serve: bad queries_b64: %w", base64.CorruptInputError(len(s)))
	}
	r.flat, r.rows, r.width = flat, rows, r.FeatureDim
	return nil
}

// EncodeQueriesB64 packs a row-major flat query block into the binary wire
// form (the client-side counterpart of decodeBinary).
func EncodeQueriesB64(flat []float64) string {
	raw := make([]byte, 8*len(flat))
	for i, v := range flat {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// NumQueries returns the number of query rows of a validated request.
func (r *PredictRequest) NumQueries() int { return r.rows }

// Features returns the (uniform) row width of a validated request.
func (r *PredictRequest) Features() int { return r.width }

// flatten returns the queries as one row-major buffer.
func (r *PredictRequest) flatten() []float64 { return r.flat }
