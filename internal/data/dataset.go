// Package data provides dataset handling for the CA-SVM reproduction:
// LIBSVM-format reading and writing, train/test splitting, and synthetic
// generators that reproduce the statistical fingerprint of each dataset in
// the paper's Table XII (sample/feature scale, class imbalance, cluster
// structure, sparsity) at laptop scale.
package data

import (
	"fmt"

	"casvm/internal/la"
)

// Dataset is a labelled train/test pair. Labels are ±1.
type Dataset struct {
	Name  string
	X     *la.Matrix
	Y     []float64
	TestX *la.Matrix
	TestY []float64
}

// M returns the number of training samples.
func (d *Dataset) M() int { return d.X.Rows() }

// Features returns the dimensionality.
func (d *Dataset) Features() int { return d.X.Features() }

// PosFrac returns the fraction of positive training labels.
func (d *Dataset) PosFrac() float64 {
	if len(d.Y) == 0 {
		return 0
	}
	pos := 0
	for _, v := range d.Y {
		if v > 0 {
			pos++
		}
	}
	return float64(pos) / float64(len(d.Y))
}

// Validate checks the internal consistency of the dataset.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("data: %s: nil X", d.Name)
	}
	if d.X.Rows() != len(d.Y) {
		return fmt.Errorf("data: %s: %d samples, %d labels", d.Name, d.X.Rows(), len(d.Y))
	}
	for i, v := range d.Y {
		if v != 1 && v != -1 {
			return fmt.Errorf("data: %s: label[%d]=%v", d.Name, i, v)
		}
	}
	if d.TestX != nil {
		if d.TestX.Rows() != len(d.TestY) {
			return fmt.Errorf("data: %s: %d test samples, %d labels", d.Name, d.TestX.Rows(), len(d.TestY))
		}
		if d.TestX.Features() != d.X.Features() {
			return fmt.Errorf("data: %s: feature mismatch train %d test %d", d.Name, d.X.Features(), d.TestX.Features())
		}
	}
	return nil
}

// Binarize maps arbitrary numeric labels onto ±1: values > threshold become
// +1, the rest −1.
func Binarize(y []float64, threshold float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v > threshold {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
