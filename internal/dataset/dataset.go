// Package dataset provides the tabular datasets used by the paper's
// evaluation: the UCI IRIS multi-class dataset (embedded verbatim and
// replicated to 1M rows exactly as the paper does, §IV-A) and a synthetic
// stand-in for the UCI HIGGS binary dataset (28 features), plus the generic
// dataset plumbing every other package shares: validation, replication and
// head views.
package dataset

import "fmt"

// BytesPerValue is the storage width of one feature value (float32),
// matching the FPGA node layout and the transfer-size arithmetic used by
// every backend.
const BytesPerValue = 4

// Dataset is an in-memory table of float32 features with integer class
// labels. Rows are stored flat in row-major order.
type Dataset struct {
	// Name identifies the dataset in reports ("IRIS", "HIGGS", ...).
	Name string
	// FeatureNames has one entry per column.
	FeatureNames []string
	// ClassNames has one entry per distinct label value.
	ClassNames []string
	// X holds NumRecords x NumFeatures values, row-major.
	X []float32
	// Y holds one class index per row; may be empty for unlabeled scoring
	// inputs.
	Y []int
}

// NumRecords returns the number of rows.
func (d *Dataset) NumRecords() int {
	if len(d.FeatureNames) == 0 {
		return 0
	}
	return len(d.X) / len(d.FeatureNames)
}

// NumFeatures returns the number of columns.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// NumClasses returns the number of distinct classes.
func (d *Dataset) NumClasses() int { return len(d.ClassNames) }

// Row returns the feature slice for row i. The slice aliases the dataset's
// storage; callers must not modify it.
func (d *Dataset) Row(i int) []float32 {
	f := d.NumFeatures()
	return d.X[i*f : (i+1)*f]
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (d *Dataset) Validate() error {
	f := d.NumFeatures()
	if f == 0 {
		if len(d.X) != 0 {
			return fmt.Errorf("dataset %q: %d values but no feature names", d.Name, len(d.X))
		}
		return nil
	}
	if len(d.X)%f != 0 {
		return fmt.Errorf("dataset %q: %d values not divisible by %d features", d.Name, len(d.X), f)
	}
	n := d.NumRecords()
	if len(d.Y) != 0 && len(d.Y) != n {
		return fmt.Errorf("dataset %q: %d labels for %d records", d.Name, len(d.Y), n)
	}
	for i, y := range d.Y {
		if y < 0 || (d.NumClasses() > 0 && y >= d.NumClasses()) {
			return fmt.Errorf("dataset %q: label %d at row %d out of range [0,%d)", d.Name, y, i, d.NumClasses())
		}
	}
	return nil
}

// Replicate returns a new dataset with exactly n rows obtained by cycling
// through the receiver's rows in order. The paper uses this construction to
// grow IRIS's 150 samples to 1M scoring records (§IV-A).
func (d *Dataset) Replicate(n int) *Dataset {
	if n < 0 {
		panic(fmt.Sprintf("dataset: Replicate(%d)", n))
	}
	src := d.NumRecords()
	if src == 0 {
		panic("dataset: Replicate on empty dataset")
	}
	f := d.NumFeatures()
	out := &Dataset{
		Name:         d.Name,
		FeatureNames: append([]string(nil), d.FeatureNames...),
		ClassNames:   append([]string(nil), d.ClassNames...),
		X:            make([]float32, n*f),
		Y:            nil,
	}
	if len(d.Y) > 0 {
		out.Y = make([]int, n)
	}
	for i := 0; i < n; i++ {
		j := i % src
		copy(out.X[i*f:(i+1)*f], d.Row(j))
		if out.Y != nil {
			out.Y[i] = d.Y[j]
		}
	}
	return out
}

// Head returns a dataset view of the first n rows (copied). If n exceeds the
// record count the whole dataset is copied.
func (d *Dataset) Head(n int) *Dataset {
	if n > d.NumRecords() {
		n = d.NumRecords()
	}
	f := d.NumFeatures()
	out := &Dataset{
		Name:         d.Name,
		FeatureNames: append([]string(nil), d.FeatureNames...),
		ClassNames:   append([]string(nil), d.ClassNames...),
		X:            append([]float32(nil), d.X[:n*f]...),
	}
	if len(d.Y) >= n {
		out.Y = append([]int(nil), d.Y[:n]...)
	}
	return out
}
