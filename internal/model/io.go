package model

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"casvm/internal/kernel"
	"casvm/internal/la"
)

// Text model-file format, in the spirit of LIBSVM model files:
//
//	casvm-model-set v1
//	models <P>
//	features <n>
//	kernel <kind> gamma <g> coef <r> scale <a> degree <d>
//	meta <key> <value>                         (optional, sorted by key)
//	centers
//	<P lines of n space-separated floats>
//	model <j> nsv <k> bias <b> fallback <±1>
//	<k lines: "<alpha> <y> <idx>:<val> ...">   (1-based sparse indices)
//
// Both dense and sparse SV storage serialise to sparse rows; loading
// produces sparse SV matrices.
//
// Text is the file format only: what people read and what model files hold
// (casvm.SaveModelSet, the CLIs, the serving registry's loads), so the writer
// below may change how it produces these bytes and never what they are. A
// model crossing a process boundary takes shard.go's binary encoding (the
// cluster's rank-done frame), and Set.Hash digests the canonical binary form
// of hash.go; neither reads this text.

// saveChunk is how much text SaveSet gathers before handing it to the writer.
const saveChunk = 32 << 10

// SaveSet writes the model set in the text format above. Every number is
// appended to one scratch buffer with strconv — 'g' at shortest precision is
// what fmt's %g prints, byte for byte (TestSaveSetBytesUnchanged) — and the
// buffer goes to w a chunk at a time, so writing a set never holds its text.
func SaveSet(w io.Writer, s *Set) error {
	k := s.Models[0].Kernel
	b := make([]byte, 0, saveChunk+saveChunk/4)
	b = strconv.AppendInt(append(b, "casvm-model-set v1\nmodels "...), int64(s.P()), 10)
	b = strconv.AppendInt(append(b, "\nfeatures "...), int64(s.Centers.Features()), 10)
	b = append(append(b, "\nkernel "...), k.Kind.String()...)
	b = appendG(append(b, " gamma "...), k.Gamma)
	b = appendG(append(b, " coef "...), k.Coef)
	b = appendG(append(b, " scale "...), k.ScaleA)
	b = strconv.AppendInt(append(b, " degree "...), int64(k.Degree), 10)
	b = append(b, '\n')
	for _, key := range sortedKeys(s.Meta) {
		if strings.ContainsAny(key, " \n") || strings.ContainsRune(s.Meta[key], '\n') {
			return fmt.Errorf("model: meta %q unencodable (space in key or newline)", key)
		}
		b = append(append(append(append(b, "meta "...), key...), ' '), s.Meta[key]...)
		b = append(b, '\n')
	}
	b = append(b, "centers\n"...)
	var err error
	for c := 0; c < s.Centers.Rows(); c++ {
		for j, v := range s.Centers.DenseRow(c) {
			if j > 0 {
				b = append(b, ' ')
			}
			b = appendG(b, v)
		}
		if b, err = spill(w, append(b, '\n'), saveChunk); err != nil {
			return err
		}
	}
	for j, m := range s.Models {
		b = strconv.AppendInt(append(b, "model "...), int64(j), 10)
		b = strconv.AppendInt(append(b, " nsv "...), int64(m.NSV()), 10)
		b = appendG(append(b, " bias "...), m.B)
		b = appendG(append(b, " fallback "...), m.Fallback)
		b = append(b, '\n')
		for i := 0; i < m.NSV(); i++ {
			b = appendG(append(appendG(b, m.Alpha[i]), ' '), m.SVY[i])
			if m.SVX.Sparse() {
				ix, vx := m.SVX.SparseRow(i)
				for t, col := range ix {
					b = appendEntry(b, int(col), vx[t])
				}
			} else {
				for col, v := range m.SVX.DenseRow(i) {
					if v != 0 {
						b = appendEntry(b, col, v)
					}
				}
			}
			if b, err = spill(w, append(b, '\n'), saveChunk); err != nil {
				return err
			}
		}
	}
	_, err = spill(w, b, 0)
	return err
}

// sortedKeys returns meta's keys in order.
func sortedKeys(meta map[string]string) []string {
	keys := make([]string, 0, len(meta))
	for key := range meta {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

func appendG(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendEntry appends " <col+1>:<v>", one stored feature of an SV line.
func appendEntry(b []byte, col int, v float64) []byte {
	b = strconv.AppendInt(append(b, ' '), int64(col+1), 10)
	return appendG(append(b, ':'), v)
}

// spill writes b to w once it holds at least min bytes and returns it emptied.
func spill(w io.Writer, b []byte, min int) ([]byte, error) {
	if len(b) < min {
		return b, nil
	}
	_, err := w.Write(b)
	return b[:0], err
}

// LoadSet parses a model set written by SaveSet.
func LoadSet(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24) // grows on demand to the 16 MiB line cap
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	line, err := next()
	if err != nil || line != "casvm-model-set v1" {
		return nil, fmt.Errorf("model: bad header %q (%v)", line, err)
	}
	var p, n int
	if line, err = next(); err != nil || strings.HasPrefix(line, "models ") == false {
		return nil, fmt.Errorf("model: want models line, got %q (%v)", line, err)
	}
	if _, err = fmt.Sscanf(line, "models %d", &p); err != nil {
		return nil, err
	}
	if line, err = next(); err != nil {
		return nil, err
	}
	if _, err = fmt.Sscanf(line, "features %d", &n); err != nil {
		return nil, err
	}
	if p < 1 || n < 1 {
		return nil, fmt.Errorf("model: bad dims p=%d n=%d", p, n)
	}
	if line, err = next(); err != nil {
		return nil, err
	}
	var kindStr string
	var kp kernel.Params
	if _, err = fmt.Sscanf(line, "kernel %s gamma %g coef %g scale %g degree %d",
		&kindStr, &kp.Gamma, &kp.Coef, &kp.ScaleA, &kp.Degree); err != nil {
		return nil, fmt.Errorf("model: kernel line %q: %v", line, err)
	}
	if kp.Kind, err = kernel.ParseKind(kindStr); err != nil {
		return nil, err
	}
	if line, err = next(); err != nil {
		return nil, err
	}
	var meta map[string]string
	for strings.HasPrefix(line, "meta ") {
		key, value, ok := strings.Cut(strings.TrimPrefix(line, "meta "), " ")
		if !ok || key == "" {
			return nil, fmt.Errorf("model: bad meta line %q", line)
		}
		if meta == nil {
			meta = map[string]string{}
		}
		meta[key] = value
		if line, err = next(); err != nil {
			return nil, err
		}
	}
	if line != "centers" {
		return nil, fmt.Errorf("model: want centers, got %q", line)
	}
	centerData := make([]float64, 0, p*n)
	for c := 0; c < p; c++ {
		if line, err = next(); err != nil {
			return nil, err
		}
		got := 0
		for f, rest := nextField(line); f != ""; f, rest = nextField(rest) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, err
			}
			centerData = append(centerData, v)
			got++
		}
		if got != n {
			return nil, fmt.Errorf("model: center %d has %d values, want %d", c, got, n)
		}
	}
	set := &Set{Centers: la.NewDense(p, n, centerData), Meta: meta}
	for j := 0; j < p; j++ {
		if line, err = next(); err != nil {
			return nil, err
		}
		var jj, nsv int
		var bias, fallback float64
		if _, err = fmt.Sscanf(line, "model %d nsv %d bias %g fallback %g", &jj, &nsv, &bias, &fallback); err != nil {
			return nil, fmt.Errorf("model: model line %q: %v", line, err)
		}
		if jj != j {
			return nil, fmt.Errorf("model: out-of-order model %d, want %d", jj, j)
		}
		m := &Model{Kernel: kp, B: bias, Fallback: fallback}
		rowptr := make([]int32, 1, nsv+1)
		var idx []int32
		var val []float64
		m.SVY = make([]float64, nsv)
		m.Alpha = make([]float64, nsv)
		for i := 0; i < nsv; i++ {
			if line, err = next(); err != nil {
				return nil, err
			}
			a, rest := nextField(line)
			yv, rest := nextField(rest)
			if yv == "" {
				return nil, fmt.Errorf("model: sv line %q", line)
			}
			if m.Alpha[i], err = strconv.ParseFloat(a, 64); err != nil {
				return nil, err
			}
			if m.SVY[i], err = strconv.ParseFloat(yv, 64); err != nil {
				return nil, err
			}
			for f, rest := nextField(rest); f != ""; f, rest = nextField(rest) {
				colon := strings.IndexByte(f, ':')
				if colon <= 0 {
					return nil, fmt.Errorf("model: sv feature %q", f)
				}
				col, err := strconv.Atoi(f[:colon])
				if err != nil || col < 1 || col > n {
					return nil, fmt.Errorf("model: sv index %q", f[:colon])
				}
				v, err := strconv.ParseFloat(f[colon+1:], 64)
				if err != nil {
					return nil, err
				}
				idx = append(idx, int32(col-1))
				val = append(val, v)
			}
			rowptr = append(rowptr, int32(len(idx)))
		}
		m.SVX = la.NewSparse(nsv, n, rowptr, idx, val)
		if err := m.Validate(); err != nil {
			return nil, err
		}
		set.Models = append(set.Models, m)
	}
	return set, nil
}

// nextField splits the first blank-separated field off s; it is empty once s
// holds nothing but blanks. SaveSet separates with one space; tabs and runs
// of blanks are skipped too.
func nextField(s string) (field, rest string) {
	blank := func(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }
	i := 0
	for i < len(s) && blank(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !blank(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}
