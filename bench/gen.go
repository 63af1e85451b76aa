package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"casvm/internal/data"
	"casvm/internal/la"
	"casvm/internal/model"
)

// Inputs are made from the seed by reflection: every workload has one fixed
// corpus (a data.MixtureSpec with a constant Seed), and the run's seed picks
// which feature axes of that corpus are negated. A reflection changes every
// input byte the program sees, yet leaves all inner products and distances
// bit-identical (negation is exact in IEEE arithmetic), so iteration counts,
// flops, messages, support vectors and accuracy do not depend on the seed and
// the spread between runs is the host's alone. Drawing a fresh corpus per seed
// was measured first: it moves solver work by 5% (FCFS-CA, 4000 samples) to 9%
// (Dis-SMO, 1000 samples) between seeds, more than the bounds this benchmark
// has to hold. See README, "What the seed does".
func reflection(seed int64, features int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	signs := make([]float64, features)
	for j := range signs {
		signs[j] = 1 - 2*float64(rng.Intn(2))
	}
	return signs
}

func reflectMatrix(x *la.Matrix, signs []float64) {
	for i := 0; i < x.Rows(); i++ {
		if x.Sparse() {
			idx, val := x.SparseRow(i)
			for k, j := range idx {
				val[k] *= signs[j]
			}
			continue
		}
		row := x.DenseRow(i)
		for j := range row {
			row[j] *= signs[j]
		}
	}
}

// generate draws the workload's corpus and reflects it by the seed.
func generate(spec data.MixtureSpec, seed int64) (*data.Dataset, error) {
	ds, err := data.Generate(spec)
	if err != nil {
		return nil, err
	}
	signs := reflection(seed, spec.Features)
	reflectMatrix(ds.X, signs)
	if ds.TestX != nil {
		reflectMatrix(ds.TestX, signs)
	}
	return ds, nil
}

// loadCorpus is the data stage every training set-up starts with: generate
// the workload's corpus from the seed, then put its training set through a
// LIBSVM file. It returns the dataset (test split as generated), the loaded
// training set, and the file's size.
func loadCorpus(tr *tracer, spec data.MixtureSpec, seed int64) (*data.Dataset, *la.Matrix, []float64, int64, error) {
	var ds *data.Dataset
	var err error
	tr.do("data.Generate", func() { ds, err = generate(spec, seed) })
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, nil, nil, 0, err
	}
	dir, err := os.MkdirTemp("out", "tmp-")
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer os.RemoveAll(dir)
	x, y, size, err := roundTrip(tr, dir, "train.libsvm", ds.X, ds.Y)
	return ds, x, y, size, err
}

// hashFloats feeds the exact bit patterns of v to h.
func hashFloats(h io.Writer, v []float64) {
	var buf [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
}

func hashMatrix(h io.Writer, x *la.Matrix) {
	var buf [4]byte
	for i := 0; i < x.Rows(); i++ {
		if !x.Sparse() {
			hashFloats(h, x.DenseRow(i))
			continue
		}
		idx, val := x.SparseRow(i)
		for _, j := range idx {
			binary.LittleEndian.PutUint32(buf[:], uint32(j))
			h.Write(buf[:])
		}
		hashFloats(h, val)
	}
}

// fingerprint identifies a labelled matrix by its exact bits.
func fingerprint(x *la.Matrix, y []float64) string {
	h := sha256.New()
	hashMatrix(h, x)
	hashFloats(h, y)
	return hex.EncodeToString(h.Sum(nil))
}

// setFingerprint identifies a trained model set by the exact bits of every
// number in it. core.ModelHash is a function of the same numbers, so equal
// fingerprints imply equal hashes; this one costs ~1 ms where ModelHash
// formats every float as text (~20 ms), which lets every op be checked.
func setFingerprint(s *model.Set) string {
	h := sha256.New()
	for _, m := range s.Models {
		hashFloats(h, []float64{m.B, m.Fallback, float64(m.NSV())})
		hashFloats(h, m.Alpha)
		hashFloats(h, m.SVY)
		if m.SVX != nil {
			hashMatrix(h, m.SVX)
		}
	}
	if s.Centers != nil {
		hashMatrix(h, s.Centers)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundTrip writes (x, y) as a LIBSVM file under dir, loads it back through
// data.LoadLIBSVMFile and returns the loaded copy in x's storage kind, with
// the file size and the two stage times. The loaded copy is what the
// workload trains on, so the data layer is on the set-up path for real.
func roundTrip(tr *tracer, dir, name string, x *la.Matrix, y []float64) (*la.Matrix, []float64, int64, error) {
	path := filepath.Join(dir, name)
	var err error
	tr.do("data.WriteLIBSVM", func() {
		var f *os.File
		if f, err = os.Create(path); err != nil {
			return
		}
		if err = data.WriteLIBSVM(f, x, y); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("write %s: %w", path, err)
	}
	defer os.Remove(path)
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, 0, err
	}
	var lx *la.Matrix
	var ly []float64
	tr.do("data.LoadLIBSVMFile", func() { lx, ly, err = data.LoadLIBSVMFile(path, x.Features()) })
	if err != nil {
		return nil, nil, 0, fmt.Errorf("load %s: %w", path, err)
	}
	if !x.Sparse() {
		n := x.Features()
		buf := make([]float64, lx.Rows()*n)
		for i := 0; i < lx.Rows(); i++ {
			lx.RowInto(i, buf[i*n:(i+1)*n])
		}
		lx = la.NewDense(lx.Rows(), n, buf)
	}
	if fingerprint(lx, ly) != fingerprint(x, y) {
		return nil, nil, 0, fmt.Errorf("LIBSVM round trip of %s changed the data", name)
	}
	return lx, ly, st.Size(), nil
}
