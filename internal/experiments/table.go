package experiments

import (
	"fmt"
	"strings"
	"time"
)

// table renders experiment series as a fixed-width text table, the
// harness's stand-in for the paper's plots.
type table struct {
	title   string
	columns []string
	rows    [][]string
}

// newTable creates a table with the given title and column headers.
func newTable(title string, columns ...string) *table {
	return &table{title: title, columns: columns}
}

// addRow appends a row: float64 cells print with three decimals,
// durations under a second to the microsecond and longer ones in seconds,
// everything else with %v.
func (t *table) addRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch x := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case time.Duration:
			if x != 0 && x < time.Second {
				row[i] = x.Round(time.Microsecond).String()
			} else {
				row[i] = fmt.Sprintf("%.3fs", x.Seconds())
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *table) String() string {
	widths := make([]int, len(t.columns))
	for i, c := range t.columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "## %s\n", t.title)
	}
	for i, c := range t.columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
