package data

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"

	"casvm/internal/la"
)

// ReadLIBSVMStream parses the LIBSVM/SVMlight sparse text format:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based in the file and converted to 0-based columns. Lines
// may carry a trailing comment introduced by '#'. The feature count is the
// maximum index seen unless minFeatures forces a wider matrix (use it to
// align train and test files). Labels are returned as parsed; callers
// typically Binarize them.
//
// It reads a seekable source in two passes. The first (countLIBSVM) counts
// bytes, not lines: upper bounds on the rows and feature pairs, so the CSR
// arrays are allocated once. The second scans line by line, cuts the comment
// off before the line's one string copy, and splits fields in one walk per
// field that also finds its ':'. No per-line field slices, no append-grown
// arrays: peak memory is the CSR arrays plus one line, which is what lets
// this scale to webspam-sized files. strconv parses every label, index and
// value.
//
// The result is identical to the grow-as-you-go reference reader in the
// tests on any input, including the error cases (bad labels/indices/values,
// duplicate indices, a line over the 16 MiB cap) — the equivalence tests and
// fuzz harness pin that.
func ReadLIBSVMStream(rs io.ReadSeeker, minFeatures int) (*la.Matrix, []float64, error) {
	buf := make([]byte, 1<<20) // the sizing pass's blocks, then the scanner's line buffer
	rows, pairBound, err := countLIBSVM(rs, buf)
	if err != nil {
		return nil, nil, err
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("data: rewind: %v", err)
	}

	var (
		rowptr = make([]int32, 1, rows+1)
		idx    = make([]int32, 0, pairBound)
		val    = make([]float64, 0, pairBound)
		y      = make([]float64, 0, rows)
		maxCol = minFeatures - 1
		lineNo = 0
	)
	sc := bufio.NewScanner(rs)
	sc.Buffer(buf, 1<<24)
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if i := bytes.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		line := string(raw)
		pos := skipSpace(line, 0)
		if pos == len(line) {
			continue
		}
		end, _ := fieldEnd(line, pos)
		label, err := strconv.ParseFloat(line[pos:end], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("data: line %d: bad label %q: %v", lineNo, line[pos:end], err)
		}
		y = append(y, label)
		rowStart := len(idx)
		sorted := true
		for pos = skipSpace(line, end); pos < len(line); pos = skipSpace(line, end) {
			var colon int
			end, colon = fieldEnd(line, pos)
			f := line[pos:end]
			if colon <= pos {
				return nil, nil, fmt.Errorf("data: line %d: bad feature %q", lineNo, f)
			}
			k, err := strconv.Atoi(line[pos:colon])
			if err != nil || k < 1 {
				return nil, nil, fmt.Errorf("data: line %d: bad index %q", lineNo, line[pos:colon])
			}
			v, err := strconv.ParseFloat(line[colon+1:end], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("data: line %d: bad value %q", lineNo, line[colon+1:end])
			}
			if v == 0 {
				continue
			}
			if len(idx) > rowStart && int32(k-1) < idx[len(idx)-1] {
				sorted = false
			}
			idx = append(idx, int32(k-1))
			val = append(val, v)
			if k-1 > maxCol {
				maxCol = k - 1
			}
		}
		ri, rv := idx[rowStart:], val[rowStart:]
		if !sorted {
			// Rare in practice: LIBSVM files are conventionally sorted, so
			// the fill skips the sort entirely when the row arrives ordered.
			sort.Sort(pairSorter{ri, rv})
		}
		for i := 1; i < len(ri); i++ {
			if ri[i] == ri[i-1] {
				return nil, nil, fmt.Errorf("data: line %d: duplicate index %d", lineNo, ri[i]+1)
			}
		}
		rowptr = append(rowptr, int32(len(idx)))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("data: read: %v", err)
	}
	n := maxCol + 1
	if n < 1 {
		n = 1
	}
	return la.NewSparse(len(y), n, rowptr, idx, val), y, nil
}

// LoadLIBSVMFile opens path and streams it through ReadLIBSVMStream.
func LoadLIBSVMFile(path string, minFeatures int) (*la.Matrix, []float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadLIBSVMStream(f, minFeatures)
}

// countLIBSVM is the sizing pass. It reads r in 64 KiB blocks of buf and
// counts bytes only: the parse pass's scanner yields at most one line per
// '\n' plus a last one without it, so rows ≤ newlines + 1, and every pair it
// keeps is a field holding a ':' of its own, so pairs ≤ colons (which
// over-counts only the colons in comments, and explicit zeros the parse
// drops). Both are capacities, so upper bounds are all the parse needs.
func countLIBSVM(r io.Reader, buf []byte) (rows, pairBound int, err error) {
	rows = 1
	blk := buf[:min(len(buf), 64<<10)]
	for empty := 0; ; {
		n, err := r.Read(blk)
		rows += bytes.Count(blk[:n], []byte{'\n'})
		pairBound += bytes.Count(blk[:n], []byte{':'})
		if err == io.EOF {
			return rows, pairBound, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("data: read: %v", err)
		}
		if n > 0 {
			empty = 0
		} else if empty++; empty == 100 { // bufio.Scanner's bound on reads that make no progress
			return 0, 0, fmt.Errorf("data: read: %v", io.ErrNoProgress)
		}
	}
}

// Byte classes of the field split. Below utf8.RuneSelf, strings.Fields
// separates on exactly the cSpace bytes; a byte at or above it starts a
// rune that unicode.IsSpace must judge.
const (
	cField = iota // any other byte of a field
	cSpace        // '\t', '\n', '\v', '\f', '\r', ' '
	cColon        // ':', a field byte the pair split looks for
	cRune         // ≥ utf8.RuneSelf
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = cSpace
	}
	t[':'] = cColon
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = cRune
	}
	return t
}()

// skipSpace and fieldEnd split exactly like strings.Fields (Unicode
// whitespace separators) so the streaming parse accepts and rejects the
// same inputs as the reference reader, byte for byte. ASCII bytes cost one
// table lookup; only a byte ≥ utf8.RuneSelf decodes a rune.
func skipSpace(line string, i int) int {
	for i < len(line) {
		switch byteClass[line[i]] {
		case cSpace:
			i++
		case cRune:
			r, w := utf8.DecodeRuneInString(line[i:])
			if !unicode.IsSpace(r) {
				return i
			}
			i += w
		default:
			return i
		}
	}
	return i
}

// fieldEnd returns the end of the field that starts at i and the index of
// its first ':' (−1 when it has none), found in the same walk.
func fieldEnd(line string, i int) (end, colon int) {
	colon = -1
	for i < len(line) {
		switch byteClass[line[i]] {
		case cField:
			i++
		case cColon:
			if colon < 0 {
				colon = i
			}
			i++
		case cSpace:
			return i, colon
		default:
			r, w := utf8.DecodeRuneInString(line[i:])
			if unicode.IsSpace(r) {
				return i, colon
			}
			i += w
		}
	}
	return i, colon
}

// pairSorter sorts a CSR row's (idx, val) pair slices by column in step.
type pairSorter struct {
	k []int32
	v []float64
}

func (p pairSorter) Len() int           { return len(p.k) }
func (p pairSorter) Less(a, b int) bool { return p.k[a] < p.k[b] }
func (p pairSorter) Swap(a, b int) {
	p.k[a], p.k[b] = p.k[b], p.k[a]
	p.v[a], p.v[b] = p.v[b], p.v[a]
}
