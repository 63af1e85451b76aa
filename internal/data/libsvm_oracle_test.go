package data

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"casvm/internal/la"
)

// ReadLIBSVM is the reference LIBSVM reader ReadLIBSVMStream is fuzzed
// against: the straightforward grow-as-you-go parse of the same format.
func ReadLIBSVM(r io.Reader, minFeatures int) (*la.Matrix, []float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		rowptr = []int32{0}
		idx    []int32
		val    []float64
		y      []float64
		maxCol = minFeatures - 1
		lineNo = 0
	)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("data: line %d: bad label %q: %v", lineNo, fields[0], err)
		}
		y = append(y, label)
		type kv struct {
			k int32
			v float64
		}
		pairs := make([]kv, 0, len(fields)-1)
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
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
			pairs = append(pairs, kv{int32(k - 1), v})
			if k-1 > maxCol {
				maxCol = k - 1
			}
		}
		// LIBSVM files are usually sorted, but do not rely on it.
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
		for i := 1; i < len(pairs); i++ {
			if pairs[i].k == pairs[i-1].k {
				return nil, nil, fmt.Errorf("data: line %d: duplicate index %d", lineNo, pairs[i].k+1)
			}
		}
		for _, p := range pairs {
			idx = append(idx, p.k)
			val = append(val, p.v)
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
