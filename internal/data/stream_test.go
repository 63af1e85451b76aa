package data

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casvm/internal/la"
)

// requireSameParse asserts two (matrix, labels) parses are identical:
// shapes, labels, and every stored (index, value) pair.
func requireSameParse(t *testing.T, x *la.Matrix, y []float64, sx *la.Matrix, sy []float64) {
	t.Helper()
	if x.Rows() != sx.Rows() || x.Features() != sx.Features() {
		t.Fatalf("shape %dx%d vs %dx%d", x.Rows(), x.Features(), sx.Rows(), sx.Features())
	}
	if len(y) != len(sy) {
		t.Fatalf("labels %d vs %d", len(y), len(sy))
	}
	for i := range y {
		if y[i] != sy[i] && !(y[i] != y[i] && sy[i] != sy[i]) { // NaN labels compare equal
			t.Fatalf("label[%d] %v vs %v", i, y[i], sy[i])
		}
	}
	for i := 0; i < x.Rows(); i++ {
		ix, vx := x.SparseRow(i)
		si, sv := sx.SparseRow(i)
		if len(ix) != len(si) {
			t.Fatalf("row %d nnz %d vs %d", i, len(ix), len(si))
		}
		for k := range ix {
			if ix[k] != si[k] || (vx[k] != sv[k] && !(vx[k] != vx[k] && sv[k] != sv[k])) {
				t.Fatalf("row %d pair %d: (%d,%v) vs (%d,%v)", i, k, ix[k], vx[k], si[k], sv[k])
			}
		}
	}
}

// TestStreamMatchesGrowReader runs both readers over representative inputs
// — sorted, unsorted, comments, blank lines, explicit zeros, exotic
// whitespace — and over the same inputs' error cases.
func TestStreamMatchesGrowReader(t *testing.T) {
	accepts := []string{
		"",
		"+1 1:0.5 3:2.0\n-1 2:1\n",
		"1 5:5 2:2 9:9\n", // unsorted row: sort path
		"1\n-1\n",         // label-only rows
		"1 1:0 2:3\n",     // explicit zero dropped
		"# leading comment\n1 1:1 # trailing\n\n\n-1 2:2\n",
		"1\t2:4\t7:1\n",        // tabs
		"1 2:4\n",              // NBSP is a Fields separator too
		"+1 1:nan 2:inf\n",     // special values
		"3.5 1:1\n-2 2:1\n",    // non-binary labels pass through
		"1 10:1e-300 2:-0.0\n", // negative zero is nonzero bits but v==0
		strings.Repeat("1 1:1 3:2 9:-4\n", 200),
	}
	for i, in := range accepts {
		x, y, err := ReadLIBSVM(strings.NewReader(in), 3)
		if err != nil {
			t.Fatalf("case %d: grow reader: %v", i, err)
		}
		sx, sy, serr := ReadLIBSVMStream(strings.NewReader(in), 3)
		if serr != nil {
			t.Fatalf("case %d: stream reader: %v", i, serr)
		}
		requireSameParse(t, x, y, sx, sy)
	}
	rejects := []string{
		"abc\n",
		"1 0:1\n",
		"1 1:1 1:2\n", // duplicate sorted
		"1 5:1 5:2\n", // duplicate detected after sort
		"1 :5\n",      // empty index
		"1 2:\n",      // empty value
		"1 x:1\n",
		"1 2:y\n",
		"1 -3:1\n",
	}
	for i, in := range rejects {
		if _, _, err := ReadLIBSVM(strings.NewReader(in), 0); err == nil {
			t.Fatalf("reject case %d: grow reader accepted", i)
		}
		if _, _, err := ReadLIBSVMStream(strings.NewReader(in), 0); err == nil {
			t.Fatalf("reject case %d: stream reader accepted", i)
		}
	}
}

func TestStreamMatchesGrowRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "%d", 2*rng.Intn(2)-1)
		col := 0
		for j := 0; j < rng.Intn(20); j++ {
			col += 1 + rng.Intn(50)
			fmt.Fprintf(&b, " %d:%g", col, rng.NormFloat64())
		}
		b.WriteByte('\n')
	}
	in := b.String()
	x, y, err := ReadLIBSVM(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	sx, sy, serr := ReadLIBSVMStream(strings.NewReader(in), 0)
	if serr != nil {
		t.Fatal(serr)
	}
	requireSameParse(t, x, y, sx, sy)
}

// TestStreamEdgeCases covers the line shapes the byte-counting sizing pass
// must bound and the scanner must split as the grow reader does: each input
// parses to the same matrix or fails with the same error text, and the
// sizing pass's counts bound the rows and pairs the parse kept.
func TestStreamEdgeCases(t *testing.T) {
	longLine := func(bytes int) string {
		var b strings.Builder
		b.WriteString("1")
		for k := 1; b.Len() < bytes; k++ {
			fmt.Fprintf(&b, " %d:%d.25", k, k%7+1)
		}
		return b.String()
	}
	cases := []struct{ name, in string }{
		{"crlf", "1 1:1 3:2\r\n-1 2:-1\r\n"},
		{"no final newline", "1 1:1\n-1 2:2"},
		{"crlf no final newline", "1 1:1\r\n-1 2:2\r"},
		{"blank and comment lines with colons", "\n\n# a:b c:d 1:2\n1 1:1 # 3:4 5:6\n   \n#::::\n-1 2:2\n\n"},
		{"cr-only accepted", "1 1:1\r2:2\r"},    // one scanner line
		{"cr-only rejected", "1 1:1\r-1 2:2\r"}, // "-1" is a field with no ':'
		{"colon in value", "1 1:2:3\n"},         // the first ':' splits
		{"only newlines", "\n\n\n"},
		{"2 MiB line", longLine(2<<20) + "\n-1 1:1\n"},
		{"bad line before a long one", "x\n" + longLine(2<<20)},
	}
	for _, c := range cases {
		x, y, err := ReadLIBSVM(strings.NewReader(c.in), 0)
		sx, sy, serr := ReadLIBSVMStream(strings.NewReader(c.in), 0)
		if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
			t.Fatalf("%s: grow reader error %v, stream reader error %v", c.name, err, serr)
		}
		if err != nil {
			continue
		}
		requireSameParse(t, x, y, sx, sy)
		rows, pairs, err := countLIBSVM(strings.NewReader(c.in), make([]byte, 1<<20))
		if err != nil || rows < sx.Rows() || pairs < sx.NNZ() {
			t.Fatalf("%s: sizing pass %d rows, %d pairs (%v) for %d rows, %d pairs", c.name, rows, pairs, err, sx.Rows(), sx.NNZ())
		}
	}
}

// TestStreamRefusesLineOverCap: a line past the scanner's 16 MiB cap is
// refused by both readers with the error text it has always had.
func TestStreamRefusesLineOverCap(t *testing.T) {
	in := "1 1:1\n1 " + strings.Repeat("7", 1<<24) + "\n"
	const want = "data: read: bufio.Scanner: token too long"
	if _, _, err := ReadLIBSVM(strings.NewReader(in), 0); err == nil || err.Error() != want {
		t.Fatalf("grow reader: %v, want %q", err, want)
	}
	if _, _, err := ReadLIBSVMStream(strings.NewReader(in), 0); err == nil || err.Error() != want {
		t.Fatalf("stream reader: %v, want %q", err, want)
	}
}

func TestLoadLIBSVMFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.svm")
	if err := os.WriteFile(path, []byte("+1 1:1 3:2\n-1 2:-1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	x, y, err := LoadLIBSVMFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 2 || x.Features() != 3 || y[0] != 1 || y[1] != -1 {
		t.Fatalf("parse: %dx%d %v", x.Rows(), x.Features(), y)
	}
	if _, _, err := LoadLIBSVMFile(filepath.Join(t.TempDir(), "missing"), 0); err == nil {
		t.Fatal("missing file should error")
	}
}

// faceFile is the face corpus (4,000×64 dense) as WriteLIBSVM writes it.
func faceFile(b *testing.B) (*Dataset, []byte) {
	d, _, err := Load("face", 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, d.X, d.Y); err != nil {
		b.Fatal(err)
	}
	return d, buf.Bytes()
}

// BenchmarkWriteLIBSVM prices the strconv writer against the fmt oracle it
// replaced on the face corpus; the bytes are the same.
func BenchmarkWriteLIBSVM(b *testing.B) {
	d, file := faceFile(b)
	for _, c := range []struct {
		name  string
		write func(io.Writer, *la.Matrix, []float64) error
	}{{"fmt", writeLIBSVMFmt}, {"strconv", WriteLIBSVM}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(file)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if err := c.write(io.Discard, d.X, d.Y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadLIBSVM guards the streaming reader's raison d'être: same
// parse, fewer and flatter allocations than the slice-growing reader. grow
// and stream read 20,000 rows of 30 "%.6f" pairs; stream-face reads the face
// corpus as WriteLIBSVM writes it, whose shortest round-trip values run 17–20
// characters.
func BenchmarkLoadLIBSVM(b *testing.B) {
	rng := rand.New(rand.NewSource(72))
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "%d", 2*rng.Intn(2)-1)
		col := 0
		for j := 0; j < 30; j++ {
			col += 1 + rng.Intn(30)
			fmt.Fprintf(&sb, " %d:%.6f", col, rng.NormFloat64())
		}
		sb.WriteByte('\n')
	}
	in := sb.String()
	b.Run("grow", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, _, err := ReadLIBSVM(strings.NewReader(in), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, _, err := ReadLIBSVMStream(strings.NewReader(in), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	_, face := faceFile(b)
	b.Run("stream-face", func(b *testing.B) {
		b.SetBytes(int64(len(face)))
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, _, err := ReadLIBSVMStream(bytes.NewReader(face), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
