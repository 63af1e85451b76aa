package data

import (
	"bufio"
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
// It reads a seekable source in two passes: the first counts rows and
// feature pairs, the second fills CSR arrays allocated exactly once. No
// per-line field slices, no append-grown global slices — the only
// steady-state allocation is the scanner's line buffer, which is what lets
// this scale to webspam-sized files without doubling peak memory.
//
// The result is identical to the grow-as-you-go reference reader in the
// tests on any input, including the error cases (bad labels/indices/values,
// duplicate indices) — the equivalence test and fuzz harness pin that.
func ReadLIBSVMStream(rs io.ReadSeeker, minFeatures int) (*la.Matrix, []float64, error) {
	rows, pairBound, err := countLIBSVM(rs)
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
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lineNo++
		line := trimComment(sc.Text())
		pos := skipSpace(line, 0)
		if pos == len(line) {
			continue
		}
		end := fieldEnd(line, pos)
		label, err := strconv.ParseFloat(line[pos:end], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("data: line %d: bad label %q: %v", lineNo, line[pos:end], err)
		}
		y = append(y, label)
		rowStart := len(idx)
		sorted := true
		for pos = skipSpace(line, end); pos < len(line); pos = skipSpace(line, end) {
			end = fieldEnd(line, pos)
			f := line[pos:end]
			colon := indexColon(f)
			if colon <= 0 {
				return nil, nil, fmt.Errorf("data: line %d: bad feature %q", lineNo, f)
			}
			k, err := strconv.Atoi(f[:colon])
			if err != nil || k < 1 {
				return nil, nil, fmt.Errorf("data: line %d: bad index %q", lineNo, f[:colon])
			}
			v, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("data: line %d: bad value %q", lineNo, f[colon+1:])
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

// countLIBSVM is the sizing pass: non-blank data lines and an upper bound
// on feature pairs (every ':' starts one; explicit zeros are dropped later,
// so the bound can exceed the final nnz but never undershoots).
func countLIBSVM(r io.Reader) (rows, pairBound int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := trimComment(sc.Text())
		blank := true
		for i := 0; i < len(line); i++ {
			switch line[i] {
			case ' ', '\t':
			case ':':
				pairBound++
				blank = false
			default:
				blank = false
			}
		}
		if !blank {
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("data: read: %v", err)
	}
	return rows, pairBound, nil
}

func trimComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' {
			return line[:i]
		}
	}
	return line
}

// skipSpace and fieldEnd split exactly like strings.Fields (Unicode
// whitespace separators) so the streaming parse accepts and rejects the
// same inputs as the reference reader, byte for byte.
func skipSpace(line string, i int) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if c != ' ' && c != '\t' && c != '\n' && c != '\v' && c != '\f' && c != '\r' {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(line[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += w
	}
	return i
}

func fieldEnd(line string, i int) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(line[i:])
		if unicode.IsSpace(r) {
			return i
		}
		i += w
	}
	return i
}

func indexColon(f string) int {
	for i := 0; i < len(f); i++ {
		if f[i] == ':' {
			return i
		}
	}
	return -1
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
