package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Table is a simple text-table builder for the experiment reports.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row (values are formatted with %v).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmtFloat(v)
		case time.Duration:
			row[i] = fmtSeconds(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "%s\n", t.title)
	}
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	writeRow(t.headers)
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	fmt.Fprintln(w)
}

// fmtSeconds renders a duration in seconds with adaptive precision, the
// unit used throughout the paper's tables.
func fmtSeconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 0.001:
		return fmt.Sprintf("%.2f ms", s*1000)
	default:
		return fmt.Sprintf("%.0f µs", s*1e6)
	}
}

func fmtFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 1e6 || a < 1e-3:
		return fmt.Sprintf("%.2e", v)
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// fmtMB renders a byte count in MB, the paper's memory unit.
func fmtMB(b uint64) string {
	return fmt.Sprintf("%.2f MB", float64(b)/1e6)
}

// fmtSpeedup renders a speed-up factor, with the paper's ">" prefix when
// the baseline timed out (so the true factor is at least this large).
func fmtSpeedup(f float64, lowerBound bool) string {
	prefix := ""
	if lowerBound {
		prefix = "> "
	}
	return fmt.Sprintf("%s%.2fx", prefix, f)
}

// GeoMean returns the geometric mean of positive values (the paper's
// average for data with exponential spread). Non-positive values are
// skipped; an empty input yields 0.
func GeoMean(vals []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
