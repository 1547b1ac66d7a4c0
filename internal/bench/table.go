package bench

import (
	"fmt"

	"repro/internal/report"
)

// Table is a formatted experiment result, printable as aligned text: the
// artifact's experiment record itself (see internal/report). The string
// rows are the human rendering; Series carries the same results as
// structured numeric metrics for machine-readable artifacts and the
// benchdiff regression gate.
type Table = report.Experiment

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
