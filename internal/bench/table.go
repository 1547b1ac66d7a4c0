package bench

import (
	"fmt"
	"math"

	"repro/internal/report"
)

// Table is a formatted experiment result, printable as aligned text. The
// string rows are the human rendering; Series carries the same results as
// structured numeric metrics for machine-readable artifacts and the
// benchdiff regression gate (see internal/report).
type Table struct {
	// Name is the stable machine-readable experiment id ("fig3", ...).
	Name    string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
	// Winner declares the metric that decides "who wins" per point, so
	// benchdiff can detect claim flips for this figure.
	Winner *report.Winner
	// Series holds per-system numeric results, in insertion order.
	Series []report.Series
	// WallMs is the host wall-clock spent producing the table (stamped by
	// RunSuite; informational, never part of the regression gate).
	WallMs float64
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// SetWinner declares the experiment's claim-deciding metric.
func (t *Table) SetWinner(metric string, lowerIsBetter bool) {
	t.Winner = &report.Winner{Metric: metric, LowerIsBetter: lowerIsBetter}
}

// Point records one structured data point for a system. Non-finite metric
// values are dropped (they would poison the JSON artifact).
func (t *Table) Point(system, label string, metrics map[string]float64) {
	clean := make(map[string]float64, len(metrics))
	for k, v := range metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean[k] = v
		}
	}
	for i := range t.Series {
		if t.Series[i].System == system {
			t.Series[i].Points = append(t.Series[i].Points, report.Point{Label: label, Metrics: clean})
			return
		}
	}
	t.Series = append(t.Series, report.Series{
		System: system,
		Points: []report.Point{{Label: label, Metrics: clean}},
	})
}

// Experiment converts the table into its artifact form.
func (t *Table) Experiment() report.Experiment {
	return report.Experiment{
		Name:    t.Name,
		Title:   t.Title,
		Note:    t.Note,
		Columns: t.Columns,
		Rows:    t.Rows,
		Winner:  t.Winner,
		Series:  t.Series,
		WallMs:  t.WallMs,
	}
}

// String renders the table as aligned text.
func (t *Table) String() string { return t.Experiment().String() }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// sizeLabel formats a message size the way the paper's axes do.
func sizeLabel(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%dKB", n/1024)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
