package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
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
				req := PredictRequest{QueriesB64: s, FeatureDim: dim}
				err := req.decodeBinary(lim)
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
	req := PredictRequest{QueriesB64: s, FeatureDim: 1}
	err := req.decodeBinary(Limits{}.Defaulted())
	_, want := base64.StdEncoding.DecodeString(s)
	if err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
		t.Fatalf("err %v, want it to end in %q", err, want)
	}
}

// TestDecodeBinaryAllocProportional: decoding a 256×64 binary request costs
// at most 2.5× the 128 KB of floats it carries — encoding/json's copy of the
// base64 string (1.33×) plus the flat values (1×), with no decoded-bytes
// copy beside them.
func TestDecodeBinaryAllocProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	flat := flatQueries(rng, 256, 64)
	body, err := json.Marshal(PredictRequest{QueriesB64: EncodeQueriesB64(flat), FeatureDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecodePredictRequest(body, Limits{}); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
	payload := float64(8 * len(flat))
	if perCall > 2.5*payload {
		t.Fatalf("decode allocates %.0f bytes per call, %.2f× the %.0f-byte payload (want ≤ 2.5×)",
			perCall, perCall/payload, payload)
	}
	t.Logf("decode: %.2f× payload", perCall/payload)
}
