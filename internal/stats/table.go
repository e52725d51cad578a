package stats

import (
	"fmt"
	"strings"
)

// Table renders aligned plain-text tables in the style of the paper's
// result tables. Cells are strings; numeric formatting is the
// caller's concern.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row. Short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table with box-drawing-free ASCII alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RenderCDFs renders one or more named CDF series side by side on a
// shared x grid, one row per grid point. All series must be evaluated
// on the same grid.
func RenderCDFs(title, xLabel string, names []string, series [][]CDFPoint) string {
	if len(names) != len(series) {
		panic("stats: names/series length mismatch")
	}
	t := NewTable(title, append([]string{xLabel}, names...)...)
	if len(series) == 0 || len(series[0]) == 0 {
		return t.String()
	}
	for i := range series[0] {
		row := make([]string, 0, 1+len(series))
		row = append(row, formatX(series[0][i].X))
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3f", s[i].F))
		}
		t.AddRow(row...)
	}
	return t.String()
}

func formatX(x float64) string {
	switch {
	case x == float64(int64(x)) && x < 1e7:
		return fmt.Sprintf("%d", int64(x))
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	case x >= 1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}
