package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// referenceBinary is decodeBinary as it was before it went chunked: decode
// the whole payload with the standard library, then check the shape. It is
// the oracle for which payloads are accepted and what they decode to.
func referenceBinary(s string, featureDim int, lim Limits) ([]float64, bool) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(raw) == 0 || len(raw)%8 != 0 {
		return nil, false
	}
	n := len(raw) / 8
	if n%featureDim != 0 || n/featureDim > lim.MaxQueries {
		return nil, false
	}
	flat := make([]float64, n)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return flat, true
}

// TestDecodeBinaryMatchesStdlib holds the chunked decoder to the standard
// library's verdict and values on payloads sized around the chunk edge
// (b64Chunk characters = 384 values), clean and damaged: newlines anywhere,
// padding in the interior, a foreign character, a truncated tail.
func TestDecodeBinaryMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lim := Limits{MaxQueries: 4096, MaxFeatures: 4096}.Defaulted()
	perChunk := b64Chunk / 4 * 3 / 8
	var payloads []string
	for _, n := range []int{1, 2, 3, perChunk - 1, perChunk, perChunk + 1, 2 * perChunk, 2*perChunk + 5, 5 * perChunk} {
		flat := make([]float64, n)
		for i := range flat {
			flat[i] = rng.NormFloat64()
		}
		payloads = append(payloads, EncodeQueriesB64(flat))
	}
	// Byte strings that are not whole values: the padded tails.
	for _, nb := range []int{1, 7, 9, 16*3 + 1, b64Chunk/4*3 - 1, b64Chunk/4*3 + 2} {
		raw := make([]byte, nb)
		rng.Read(raw)
		payloads = append(payloads, base64.StdEncoding.EncodeToString(raw))
	}
	damage := []func(string) string{
		func(s string) string { return s },
		func(s string) string { return s + "\n" },
		func(s string) string { return s + "\r\n\r\n" },
		func(s string) string { // MIME-style line breaks
			var b strings.Builder
			for i := 0; i < len(s); i += 76 {
				b.WriteString(s[i:min(i+76, len(s))])
				b.WriteString("\r\n")
			}
			return b.String()
		},
		func(s string) string { return s[:len(s)/2] + "\n" + s[len(s)/2:] },
		func(s string) string { return s[:len(s)-1] },                                 // truncated
		func(s string) string { return s[:len(s)/2] + "*" + s[len(s)/2+1:] },          // foreign character
		func(s string) string { return s[:len(s)/8*4] + "AA==" + s[len(s)/8*4:] },     // interior padding
		func(s string) string { return strings.Repeat("A", b64Chunk-4) + "AA==" + s }, // padding closing a full chunk
		func(s string) string { return s + "AAAA" },
		func(s string) string { return s + "=" },
		func(s string) string { return "=" + s },
	}
	accepted := 0
	for pi, p := range payloads {
		for di, d := range damage {
			s := d(p)
			for _, dim := range []int{1, 3} {
				want, ok := referenceBinary(s, dim, lim)
				req := PredictRequest{FeatureDim: dim}
				err := req.decodeBinary([]byte(s), lim)
				if (err == nil) != ok {
					t.Fatalf("payload %d damage %d dim %d: chunked err %v, stdlib accepts=%v", pi, di, dim, err, ok)
				}
				if !ok {
					continue
				}
				accepted++
				if len(req.flat) != len(want) || req.rows*req.width != len(want) || req.width != dim {
					t.Fatalf("payload %d damage %d dim %d: shape %d×%d over %d values, want %d",
						pi, di, dim, req.rows, req.width, len(req.flat), len(want))
				}
				for i := range want {
					if math.Float64bits(req.flat[i]) != math.Float64bits(want[i]) {
						t.Fatalf("payload %d damage %d: value %d differs", pi, di, i)
					}
				}
			}
		}
	}
	if accepted < 40 {
		t.Fatalf("only %d accepted combinations: the table no longer exercises the happy path", accepted)
	}
}

// TestDecodeBinaryCorruptOffset: the error names the offending byte's place
// in the payload, not in whichever chunk it fell.
func TestDecodeBinaryCorruptOffset(t *testing.T) {
	s := EncodeQueriesB64(make([]float64, 1000))
	at := b64Chunk + 17
	s = s[:at] + "*" + s[at+1:]
	req := PredictRequest{FeatureDim: 1}
	err := req.decodeBinary([]byte(s), Limits{}.Defaulted())
	_, want := base64.StdEncoding.DecodeString(s)
	if err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
		t.Fatalf("err %v, want it to end in %q", err, want)
	}
}

// allocPerDecode is the mean number of bytes DecodePredictRequest allocates
// on body, and the error it returns.
func allocPerDecode(body []byte, lim Limits) (float64, error) {
	const runs = 20
	var before, after runtime.MemStats
	var err error
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, err = DecodePredictRequest(body, lim)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, err
}

// TestDecodeBinaryAllocProportional: decoding a 256×64 binary request costs
// at most 1.1× the 128 KB of floats it carries — the base64 is decoded out of
// the body itself, so the decoder holds flat and nothing else.
func TestDecodeBinaryAllocProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	flat := flatQueries(rng, 256, 64)
	body, err := json.Marshal(PredictRequest{QueriesB64: EncodeQueriesB64(flat), FeatureDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	perCall, err := allocPerDecode(body, Limits{})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	payload := float64(8 * len(flat))
	if perCall > 1.1*payload {
		t.Fatalf("decode allocates %.0f bytes per call, %.2f× the %.0f-byte payload (want ≤ 1.1×)",
			perCall, perCall/payload, payload)
	}
	t.Logf("decode: %.2f× payload", perCall/payload)
}

// TestDecodeArraysAllocNoRows: a 1×64 JSON-array request allocates the
// request and its flat buffer, sized exactly — no per-row slice, no regrowth.
func TestDecodeArraysAllocNoRows(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	body, err := json.Marshal(PredictRequest{Queries: [][]float64{flatQueries(rng, 1, 64)}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodePredictRequest(body, Limits{}); err != nil {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs != 2 {
		t.Fatalf("decode makes %v allocations, want 2 (the request and flat)", allocs)
	}
}

// TestDecodeArraysLimitsBeforeAllocation: a JSON-array body over a limit, or
// cut off inside a row wider than the limit, is refused having stored
// nothing — not after the whole body was materialised.
func TestDecodeArraysLimitsBeforeAllocation(t *testing.T) {
	lim := Limits{}.Defaulted()
	tooMany := `{"queries": [` + strings.Repeat("[1],", lim.MaxQueries) + `[1]]}`
	tooWide := `{"queries": [[` + strings.Repeat("1,", 70000) + `1]]}`
	for _, c := range []struct{ name, body, want string }{
		{"MaxQueries+1 rows", tooMany, "more than 4096 queries"},
		{"70k-wide row 0", tooWide, "width 70001 outside"},
		{"truncated 70k-wide row 0", tooWide[:len(tooWide)-3], "bad request JSON"},
	} {
		perCall, err := allocPerDecode([]byte(c.body), Limits{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err %v, want it to mention %q", c.name, err, c.want)
		}
		if perCall >= 64<<10 {
			t.Fatalf("%s: refused after allocating %.0f bytes per call (want < 64 KiB)", c.name, perCall)
		}
	}
}

// referenceDecode is DecodePredictRequest as it was before the one-pass
// parser: json.Unmarshal the whole body, then validate. Queries decode into
// pointers so that a null feature, which encoding/json leaves as 0 in a
// float64, is seen and refused — the one rule the parser adds — and the
// binary form goes through referenceBinary. FuzzDecodePredictRequest holds
// the parser to its verdicts and values.
func referenceDecode(data []byte, lim Limits) (*PredictRequest, error) {
	lim = lim.Defaulted()
	if int64(len(data)) > lim.MaxBody {
		return nil, errors.New("body over MaxBody")
	}
	var wire struct {
		Model      string       `json:"model"`
		Queries    [][]*float64 `json:"queries"`
		QueriesB64 string       `json:"queries_b64"`
		FeatureDim int          `json:"features"`
		Decisions  bool         `json:"decisions"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	req := &PredictRequest{Model: wire.Model, FeatureDim: wire.FeatureDim, Decisions: wire.Decisions}
	switch {
	case len(wire.Queries) > 0 && wire.QueriesB64 != "":
		return nil, errors.New("both queries and queries_b64")
	case wire.QueriesB64 != "":
		if wire.FeatureDim < 1 || wire.FeatureDim > lim.MaxFeatures {
			return nil, errors.New("features out of range")
		}
		flat, ok := referenceBinary(wire.QueriesB64, wire.FeatureDim, lim)
		if !ok {
			return nil, errors.New("bad queries_b64")
		}
		req.flat, req.rows, req.width = flat, len(flat)/wire.FeatureDim, wire.FeatureDim
	case len(wire.Queries) > 0:
		width := len(wire.Queries[0])
		if len(wire.Queries) > lim.MaxQueries || width < 1 || width > lim.MaxFeatures {
			return nil, errors.New("shape over limits")
		}
		for _, q := range wire.Queries {
			if len(q) != width {
				return nil, errors.New("ragged")
			}
			for _, v := range q {
				if v == nil {
					return nil, errors.New("null feature")
				}
				req.flat = append(req.flat, *v)
			}
		}
		req.rows, req.width = len(wire.Queries), width
	default:
		return nil, errors.New("no queries")
	}
	for _, v := range req.flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errors.New("not finite")
		}
	}
	return req, nil
}
