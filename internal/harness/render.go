package harness

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// cell aggregates the repeats of one series at one x of one figure.
type cell struct {
	Record                  // the first repeat: counts and workers
	elapsed []time.Duration // every repeat
}

func (c *cell) quantile(p float64) time.Duration {
	s := slices.Clone(c.elapsed)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

// figure is one figure's cells, rows (x, dataset) and series in the
// order the records first name them.
type figure struct {
	id               string
	rows, series     []string
	datasets         []string
	cells            map[[2]string]*cell // (row, series)
	parallel, capped bool                // some run asked for > 1 worker / hit its budget
}

// Render prints Table I and then one markdown table per figure of the
// records: per series and x the median and interquartile range of the
// elapsed time and the pattern count, with "*" marking a run stopped by
// its pattern budget and "-" a series not run at that x. Figures with
// parallel runs also get each series' speedup over the same series at
// workers=1. Case-study rows print their report below the table.
func Render(records []Record) (string, error) {
	t1, err := Table1()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("## Table I\n\n")
	b.WriteString(t1.Render())
	var figs []*figure
	byID := map[string]*figure{}
	for _, r := range records {
		f := byID[r.Figure]
		if f == nil {
			f = &figure{id: r.Figure, cells: map[[2]string]*cell{}}
			byID[r.Figure] = f
			figs = append(figs, f)
		}
		row := fmt.Sprintf("%g|%s", r.X, r.Dataset)
		key := [2]string{row, r.Series}
		c := f.cells[key]
		if c == nil {
			c = &cell{Record: r}
			f.cells[key] = c
			f.rows = appendNew(f.rows, row)
			f.series = appendNew(f.series, r.Series)
			f.datasets = appendNew(f.datasets, r.Dataset)
		}
		c.elapsed = append(c.elapsed, r.Elapsed)
		f.parallel = f.parallel || r.WorkersRequested > 1
		f.capped = f.capped || r.Truncated
	}
	for _, f := range figs {
		f.render(&b)
	}
	return b.String(), nil
}

func appendNew(list []string, s string) []string {
	if slices.Contains(list, s) {
		return list
	}
	return append(list, s)
}

func (f *figure) render(b *strings.Builder) {
	fmt.Fprintf(b, "\n## %s\n\n", f.id)
	multi := len(f.datasets) > 1
	if !multi {
		fmt.Fprintf(b, "Dataset %s.\n\n", f.datasets[0])
	}
	head := []string{"x"}
	if multi {
		head = append(head, "dataset")
	}
	for _, s := range f.series {
		head = append(head, s+" median", s+" IQR", s+" patterns")
		if f.parallel {
			head = append(head, s+" speedup")
		}
	}
	if f.parallel {
		head = append(head, "workers used")
	}
	b.WriteString("| " + strings.Join(head, " | ") + " |\n")
	b.WriteString(strings.Repeat("|---", len(head)) + "|\n")
	missing := false
	var posts []string
	for _, row := range f.rows {
		x, ds, _ := strings.Cut(row, "|")
		line := []string{x}
		if multi {
			line = append(line, ds)
		}
		used := "-"
		for _, s := range f.series {
			c := f.cells[[2]string{row, s}]
			if c == nil {
				missing = true
				line = append(line, "-", "-", "-")
				if f.parallel {
					line = append(line, "-")
				}
				continue
			}
			mark := ""
			if c.Truncated {
				mark = "*"
			}
			median := c.quantile(0.5)
			line = append(line, fmtDuration(median)+mark, fmtDuration(c.quantile(0.75)-c.quantile(0.25)),
				fmt.Sprint(c.Patterns)+mark)
			if f.parallel {
				line = append(line, f.speedup(s, median))
				used = fmt.Sprint(c.WorkersEffective)
			}
			if c.Post != "" {
				posts = append(posts, fmt.Sprintf("- %s at x=%s: %s.", s, x, c.Post))
			}
		}
		if f.parallel {
			line = append(line, used)
		}
		b.WriteString("| " + strings.Join(line, " | ") + " |\n")
	}
	if f.capped {
		b.WriteString("\n\\* stopped at its pattern budget (`maxPatterns`), the deterministic stand-in for the paper's cut-off.\n")
	}
	if missing {
		b.WriteString("\n\"-\" not run at this x (GSgrow's cut-off region of the paper's figure).\n")
	}
	if len(posts) > 0 {
		b.WriteString("\nCase study:\n\n" + strings.Join(posts, "\n") + "\n")
	}
}

// speedup is series s's median at workers=1 over median.
func (f *figure) speedup(s string, median time.Duration) string {
	for _, row := range f.rows {
		if base := f.cells[[2]string{row, s}]; base != nil && base.WorkersRequested == 1 && median > 0 {
			return fmt.Sprintf("%.2fx", float64(base.quantile(0.5))/float64(median))
		}
	}
	return "-"
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
