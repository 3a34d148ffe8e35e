// Package report renders the paper-style text tables (benchmark times
// per thread count, basic-operation times, LU decomposition classes)
// with aligned columns, so the harness output can be compared
// side-by-side with the tables in the paper.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// New creates a table with a title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; missing cells render empty, extra cells extend
// the width bookkeeping.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// NumRows reports how many data rows the table has.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.Header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		line(t.Header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Seconds formats a duration in seconds the way the paper's tables do.
func Seconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 10:
		return fmt.Sprintf("%.1f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

// Speedup formats a speedup/efficiency ratio.
func Speedup(r float64) string { return fmt.Sprintf("%.2f", r) }
