package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseLIBSVM reads the sparse LIBSVM text format ("label idx:val ...",
// 1-based indices). When dim is zero the dimension is inferred from the
// largest index seen; otherwise rows are padded/validated against dim.
// Labels must parse to ±1 (0 and 2 are accepted as the negative class,
// matching common LIBSVM binary encodings).
func ParseLIBSVM(r io.Reader, name string, dim int) (*Dataset, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<22)

	type sparseRow struct {
		label   int
		indices []int
		values  []float64
	}
	var rows []sparseRow
	maxIdx := dim
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		labelF, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		var label int
		switch {
		case labelF > 0 && labelF != 2:
			label = 1
		default:
			label = -1
		}
		row := sparseRow{label: label}
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon <= 0 {
				return nil, fmt.Errorf("dataset: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 {
				return nil, fmt.Errorf("dataset: line %d: bad feature index %q", lineNo, f[:colon])
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad feature value %q: %w", lineNo, f[colon+1:], err)
			}
			if dim > 0 && idx > dim {
				return nil, fmt.Errorf("dataset: line %d: index %d exceeds dim %d", lineNo, idx, dim)
			}
			if idx > maxIdx {
				maxIdx = idx
			}
			row.indices = append(row.indices, idx)
			row.values = append(row.values, val)
		}
		rows = append(rows, row)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read libsvm: %w", err)
	}
	if len(rows) == 0 {
		return nil, ErrEmpty
	}

	d := &Dataset{Name: name, X: make([][]float64, len(rows)), Y: make([]int, len(rows))}
	for i, row := range rows {
		x := make([]float64, maxIdx)
		for j, idx := range row.indices {
			x[idx-1] = row.values[j]
		}
		d.X[i] = x
		d.Y[i] = row.label
	}
	return d, d.Validate()
}
