package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/drdp/drdp/internal/mat"
)

// WriteCSV writes the dataset as rows of feature values followed by the
// label in the last column. No header is emitted.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	record := make([]string, d.Dim()+1)
	for i := 0; i < d.Len(); i++ {
		row := d.X.Row(i)
		for j, v := range row {
			record[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		record[d.Dim()] = strconv.FormatFloat(d.Y[i], 'g', -1, 64)
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("data: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("data: flush csv: %w", err)
	}
	return nil
}

// ReadCSV parses a dataset written by WriteCSV. numClasses follows the
// Dataset convention and is recorded, not inferred.
func ReadCSV(r io.Reader, numClasses int) (*Dataset, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("data: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("data: read csv: empty input")
	}
	dim := len(records[0]) - 1
	if dim < 1 {
		return nil, fmt.Errorf("data: read csv: need at least one feature column")
	}
	ds := &Dataset{
		X:          mat.NewDense(len(records), dim),
		Y:          make([]float64, len(records)),
		NumClasses: numClasses,
	}
	for i, rec := range records {
		if len(rec) != dim+1 {
			return nil, fmt.Errorf("data: read csv: row %d has %d fields, want %d", i, len(rec), dim+1)
		}
		row := ds.X.Row(i)
		for j := 0; j < dim; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("data: read csv: row %d col %d: %w", i, j, err)
			}
			row[j] = v
		}
		y, err := strconv.ParseFloat(rec[dim], 64)
		if err != nil {
			return nil, fmt.Errorf("data: read csv: row %d label: %w", i, err)
		}
		ds.Y[i] = y
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}
