package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// table is one experiment's output: a banner line and a tab-aligned table
// on the experiment's writer and, when the scale carries a Sink, the rows'
// named values as metrics of experiment exp. Print-only rows are written
// to the table directly (it is the tabwriter); Flush ends the experiment.
type table struct {
	*tabwriter.Writer
	sink *Sink
	exp  string
}

// table prints the banner and, unless empty, the tab-separated column
// header.
func (s Scale) table(w io.Writer, exp, banner, header string) *table {
	fmt.Fprintln(w, banner)
	t := &table{Writer: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), sink: s.Sink, exp: exp}
	if header != "" {
		fmt.Fprintln(t, header)
	}
	return t
}

// cell is one value of a measured row. A cell with a format is printed, in
// row order; a cell with a name is recorded to the sink under that metric
// name, in row order. Most cells carry both, so a table and its
// BENCH_<exp>.json cannot disagree about a value.
type cell struct {
	name, format string
	v            any // int, int64, uint64 or float64 when named
}

// row prints lead (the row's identifying cells, tab-separated) followed by
// the formatted cells, and records the named cells under labels.
func (t *table) row(labels map[string]string, lead string, cells []cell) {
	fmt.Fprint(t, lead)
	for _, c := range cells {
		if c.format != "" {
			fmt.Fprintf(t, "\t"+c.format, c.v)
		}
		if c.name == "" {
			continue
		}
		var v float64
		switch n := c.v.(type) {
		case int:
			v = float64(n)
		case int64:
			v = float64(n)
		case uint64:
			v = float64(n)
		case float64:
			v = n
		default:
			panic(fmt.Sprintf("harness: metric %s/%s has non-numeric value %v", t.exp, c.name, c.v))
		}
		t.sink.Record(t.exp, c.name, labels, v)
	}
	fmt.Fprintln(t)
}
