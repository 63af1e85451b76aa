package serve

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
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

// TestDecodeBinaryLanes pins what DecodePredictRequest makes of a
// queries_b64 body of three whole chunks and a tail, clean and with a bad
// byte, '=' or a NaN in chunk 0, chunk 1 or the tail, with two faults in one
// chunk or in two, and with escaped line breaks: the queries bit for bit,
// or the error string. The lanes take whole clean chunks and hand any other
// chunk to the loop from its start, so the pins hold with the lanes on and
// off alike; TestDecodeBinaryLanesOff reruns this test with them off.
func TestDecodeBinaryLanes(t *testing.T) {
	const width = 64
	vals := flatQueries(rand.New(rand.NewSource(47)), 20, width) // 1280 values: chunks 0–2, 128 in the tail
	clean := EncodeQueriesB64(vals)
	const chunk1, tail = b64Chunk, 3 * b64Chunk
	put := func(s string, at int, c byte) string { return s[:at] + string(c) + s[at+1:] }
	nan := func(ks ...int) string {
		x := append([]float64(nil), vals...)
		for _, k := range ks {
			x[k] = math.NaN()
		}
		return EncodeQueriesB64(x)
	}
	mime := func(s string) string { // escaped CR LF every 76 characters
		var b strings.Builder
		for i := 0; i < len(s); i += 76 {
			b.WriteString(s[i:min(i+76, len(s))])
			b.WriteString(`\r\n`)
		}
		return b.String()
	}
	bad := "serve: bad queries_b64: illegal base64 data at input byte "
	for _, c := range []struct{ name, b64, err string }{
		{"clean", clean, ""},
		{"bad byte in chunk 0", put(clean, 100, '!'), bad + "100"},
		{"bad byte in chunk 1", put(clean, chunk1+100, '!'), bad + "4196"},
		{"bad byte in the tail", put(clean, tail+100, '!'), bad + "12388"},
		{"= in chunk 0", put(clean, 101, '='), bad + "101"},
		{"= in chunk 1", put(clean, chunk1+102, '='), bad + "4198"},
		{"= in the tail", put(clean, tail+103, '='), bad + "12392"},
		{"NaN in chunk 0", nan(5), "serve: query 0 feature 5 is not finite"},
		{"NaN in chunk 1", nan(400), "serve: query 6 feature 16 is not finite"},
		{"NaN in the tail", nan(1200), "serve: query 18 feature 48 is not finite"},
		{"NaN before a bad byte in chunk 1", put(nan(400), chunk1+4000, '!'), bad + "8096"},
		{"NaN in chunk 0, bad byte in chunk 1", put(nan(5), chunk1+4000, '!'), "serve: query 0 feature 5 is not finite"},
		{"two NaNs in chunk 2", nan(900, 800), "serve: query 12 feature 32 is not finite"},
		{"escaped CR LF", mime(clean), ""},
		{"escaped CR LF, bad byte in chunk 1", mime(put(clean, chunk1+100, '!')), bad + "100"}, // offset in its chunk,
		{"escaped CR LF, NaN in chunk 1", mime(nan(400)), "serve: query 6 feature 16 is not finite"},
	} {
		body := `{"queries_b64": "` + c.b64 + `", "features": 64}`
		req, err := DecodePredictRequest([]byte(body), Limits{})
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("%s: err %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if req.rows != 20 || req.width != width {
			t.Errorf("%s: decoded %d×%d, want 20×%d", c.name, req.rows, req.width, width)
		}
		for i, v := range req.flatten() {
			if math.Float64bits(v) != math.Float64bits(vals[i]) {
				t.Fatalf("%s: value %d is %#x, want %#x", c.name, i, math.Float64bits(v), math.Float64bits(vals[i]))
			}
		}
	}
}

// TestDecodeBinaryLanesOff reruns the decoder's pins and its fuzz seeds in
// a process with AVX2 off (GODEBUG=cpu.avx2=off), where la's lanes stay off
// and decodeBinary runs its loop alone: both processes must land on the same
// queries and the same error strings.
func TestDecodeBinaryLanesOff(t *testing.T) {
	if os.Getenv("GODEBUG") != "" {
		t.Skip("needs a process without GODEBUG settings")
	}
	cmd := exec.Command(os.Args[0], "-test.count=1",
		"-test.run=^(TestDecodeBinaryLanes|TestDecodeBinaryMatchesStdlib|FuzzDecodePredictRequest)$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.avx2=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under GODEBUG=cpu.avx2=off: %v\n%s", err, out)
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

// TestQueriesB64RefusedBytes: a 175 KB queries_b64 value with a backslash,
// LF or CR at its first, a middle or its last byte is refused with the text
// the reader has always given — a raw line break names the string's opening
// quote; a backslash sends the string through the escape-aware reader,
// which names the bad escape, or, where the backslash escapes the closing
// quote, the unterminated string — and the value as sent decodes.
func TestQueriesB64RefusedBytes(t *testing.T) {
	const feats, nq = 64, 262
	lim := Limits{MaxQueries: nq, MaxFeatures: feats, MaxBody: 1 << 20}
	flat := make([]float64, feats*nq)
	val := EncodeQueriesB64(flat)
	if len(val) < 175_000 {
		t.Fatalf("value of %d bytes, want 175 KB", len(val))
	}
	prefix := `{"features": 64, "queries_b64": "`
	body := prefix + val + `"}`
	if req, err := DecodePredictRequest([]byte(body), lim); err != nil || req.NumQueries() != nq {
		t.Fatalf("clean value: err %v", err)
	}
	quote := len(prefix) - 1
	for _, pos := range []int{0, len(val) / 2, len(val) - 1} {
		at := len(prefix) + pos
		for _, c := range []byte{'\\', '\n', '\r'} {
			b := []byte(body)
			b[at] = c
			var want string
			switch {
			case c != '\\':
				want = fmt.Sprintf("serve: bad request JSON: control character in string at offset %d", quote)
			case pos == len(val)-1: // \" escapes the closing quote
				want = fmt.Sprintf("serve: bad request JSON: unterminated string at offset %d", len(b))
			default: // \A
				want = fmt.Sprintf("serve: bad request JSON: invalid escape in string at offset %d", at)
			}
			if _, err := DecodePredictRequest(b, lim); err == nil || err.Error() != want {
				t.Errorf("%q at byte %d of the value: err %v, want %q", c, pos, err, want)
			}
		}
	}
}
