package serve

import (
	"math"
	"strings"
	"testing"
)

// FuzzDecodePredictRequest drives the HTTP decoder with arbitrary bytes.
// The decoder is the trust boundary of the serving plane: whatever arrives,
// it must never panic, anything it accepts must satisfy the invariants the
// batcher and kernel rely on — non-empty, uniform-width, all-finite rows
// within the configured limits — and it must agree with referenceDecode,
// the json.Unmarshal decoder it replaced: the same bodies accepted, with
// bit-identical queries, model name and decisions flag.
func FuzzDecodePredictRequest(f *testing.F) {
	nanB64 := EncodeQueriesB64([]float64{1, math.NaN()})
	b64 := EncodeQueriesB64([]float64{1, 2, 3, 4})
	slashB64 := EncodeQueriesB64([]float64{-1.5, 3}) // holds a '/'
	seeds := []string{
		`{"queries": [[1,2],[3,4]]}`,
		`{"model": "default", "queries": [[0.5]], "decisions": true}`,
		`{"queries": []}`,
		`{"queries": [[1,2],[3]]}`,
		`{"queries": [[1e999]]}`,
		`{"queries": [[1,null]]}`,
		`{"queries": "nope"}`,
		`{"queries": [[NaN]]}`,
		`[]`,
		`{`,
		``,
		`{"queries": [[` + strings.Repeat("1,", 100) + `1]]}`,
		`{"queries_b64": "` + b64 + `", "features": 2}`,
		`{"queries_b64": "` + nanB64 + `", "features": 2}`,
		`{"queries_b64": "AAAA", "features": 1}`,
		`{"queries_b64": "!!!!", "features": 1}`,
		`{"queries_b64": "", "features": 0}`,
		`{"queries": [[1]], "queries_b64": "` + nanB64 + `", "features": 2}`,
		// Key matching: case-folded, duplicated, null after a value.
		`{"QUERIES_B64": "` + b64 + `", "Features": 2, "DECISIONS": true, "Model": "m"}`,
		`{"querieſ": [[1]]}`,
		`{"queries": [[1,2],[3]], "queries": [[1]]}`,
		`{"queries": [[1e400]], "queries": [[1]]}`,
		`{"queries": [[1,null]], "queries": [[1,2]]}`,
		`{"queries_b64": "!!!!", "queries_b64": "` + b64 + `", "features": 1}`,
		"{\"queries_b64\": \"AA\x01A\", \"queries_b64\": \"" + b64 + "\", \"features\": 1}",
		`{"queries_b64": "` + b64 + `", "features": 2, "queries_b64": null, "features": null}`,
		`{"queries_b64": "` + b64 + `", "features": 2, "queries": []}`,
		`{"queries_b64": "` + b64 + `", "features": 2, "queries": [null]}`,
		`{"queries": [[1]], "queries": null}`,
		`{"queries": [[1]], "queries": null, "queries_b64": "` + b64 + `", "features": 1}`,
		`{"queries": [[1,2],[1e400]], "queries": [[1]]}`,
		`{"queries": [[1],[` + strings.Repeat("9", 309) + `, 1]], "queries": [[1]]}`,
		`{"queries": [[1],[` + strings.Repeat("9", 308) + `.5, 1]], "queries": [[1]]}`,
		`{"queries": [[1],[-` + strings.Repeat("9", 308) + `, 1]], "queries": [[1]]}`,
		`{"queries": [[1],[1,2]], "queries": [[1]]}`,
		// Unknown keys are validated and skipped, strings and all.
		`{"x": {"a": ["}", "\"", {"b": [null, true, -1.5e3]}]}, "queries": [[1]]}`,
		`{"x": [1,], "queries": [[1]]}`,
		`{"x": "\q", "queries": [[1]]}`,
		`{"x": ` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `, "queries": [[1]]}`,
		// Escapes inside queries_b64 are resolved; a raw LF is invalid JSON.
		`{"queries_b64": "` + strings.ReplaceAll(slashB64, "/", `\/`) + `", "features": 2}`,
		`{"queries_b64": "` + b64[:8] + `\n` + b64[8:] + `\r\n", "features": 2}`,
		`{"queries_b64": "` + b64[:8] + `A` + b64[9:] + `", "features": 2}`,
		`{"queries_b64": "` + b64[:8] + "\n" + b64[8:] + `", "features": 2}`,
		// Whitespace, trailing garbage, top-level values that are no object.
		" \t\r\n{\"queries\" : [ [ 1 , 2 ] ] } \n",
		`{"queries": [[1]]} x`,
		`{"queries": [[1]]}}`,
		`null`,
		`"x"`,
		// Malformed or mistyped at each place the parser can be.
		`{"queries": [[1]] "x": 1}`,
		`{"queries" [[1]]}`,
		`{queries: [[1]]}`,
		`{"queries": [[1]] , }`,
		`{"queries": [1]}`,
		`{"queries": [[1] [2]]}`,
		`{"queries": [[1 2]]}`,
		`{"queries": [[1, "2"]]}`,
		`{"queries": [[1]], "features": "2"}`,
		`{"queries": [[1]], "model": 5}`,
		`{"queries": [[1]], "model": "a\tb"}`,
		`{"queries": [[1]], "decisions": 1}`,
		`{"queries": [[1]], "x": tru}`,
		`{"queries": [[1]], "x": {"a" 1}}`,
		`{"queries": [[1]], "x": {1: 2}}`,
		`{"queries": [[1]], "x": [1 2]}`,
		`{"queries": [[1]], "x": "\u12G4"}`,
		`{"queries": [[1]], "x": `,
		`{"queries": [[1]], "model": null, "x": "é`,
		// Numbers: JSON's grammar and float64's range.
		`{"queries": [[-0]]}`,
		`{"queries": [[1e-400]]}`,
		`{"queries": [[1e400]]}`,
		`{"queries": [[01]]}`,
		`{"queries": [[+1]]}`,
		`{"queries": [[.5]]}`,
		`{"queries": [[1.]]}`,
		`{"queries": [[1E+2, -2.5e-3, 0.0]]}`,
		`{"queries_b64": "` + b64 + `", "features": 2.0}`,
		`{"queries": [[1]], "features": 2.0}`,
		`{"queries": [[1]], "features": -0, "model": "é\ud800", "decisions": false}`,
	}
	// Multi-chunk bodies, 64×16 values over two whole b64Chunk chunks and a
	// tail: clean, and with a bad byte or a NaN in chunk 0, chunk 1 or the
	// tail, where the lanes take a chunk whole or leave it to the loop.
	many := make([]float64, 64*16)
	for i := range many {
		many[i] = float64(i%97) - 48.5
	}
	multi := func(s string) string { return `{"queries_b64": "` + s + `", "features": 16}` }
	seeds = append(seeds, multi(EncodeQueriesB64(many)))
	for _, at := range []int{100, b64Chunk + 100, 2*b64Chunk + 100} {
		s := EncodeQueriesB64(many)
		seeds = append(seeds, multi(s[:at]+"!"+s[at+1:]))
	}
	for _, k := range []int{5, 400, 800} {
		x := append([]float64(nil), many...)
		x[k] = math.NaN()
		seeds = append(seeds, multi(EncodeQueriesB64(x)))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxQueries: 64, MaxFeatures: 128, MaxBody: 1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodePredictRequest(data, lim)
		ref, refErr := referenceDecode(data, lim)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if req.NumQueries() == 0 || req.NumQueries() > lim.MaxQueries {
			t.Fatalf("accepted %d queries outside (0, %d]", req.NumQueries(), lim.MaxQueries)
		}
		width := req.Features()
		if width < 1 || width > lim.MaxFeatures {
			t.Fatalf("accepted width %d outside [1, %d]", width, lim.MaxFeatures)
		}
		// flatten must agree with the validated shape, with every value
		// finite regardless of which encoding carried it.
		flat := req.flatten()
		if len(flat) != req.NumQueries()*width {
			t.Fatalf("flatten length %d, want %d", len(flat), req.NumQueries()*width)
		}
		for i, v := range flat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value at flat[%d]: %v", i, v)
			}
		}
		if req.Model != ref.Model || req.Decisions != ref.Decisions ||
			req.rows != ref.rows || req.width != ref.width || len(flat) != len(ref.flat) {
			t.Fatalf("decoded %q/%v %d×%d, reference %q/%v %d×%d",
				req.Model, req.Decisions, req.rows, req.width, ref.Model, ref.Decisions, ref.rows, ref.width)
		}
		for i := range flat {
			if math.Float64bits(flat[i]) != math.Float64bits(ref.flat[i]) {
				t.Fatalf("flat[%d] = %v, reference %v", i, flat[i], ref.flat[i])
			}
		}
	})
}
