package report

import (
	"time"
)

// RunMetric is one experiment's execution record: how long it took, how
// many sweep rows it produced, and how it ended. The parallel runner
// emits one per experiment so a full-suite regeneration reports where
// the wall-clock time went.
type RunMetric struct {
	ID   string
	Wall time.Duration
	// Rows is the number of sweep points (table rows) the experiment
	// produced before finishing or failing.
	Rows int
	Pass bool
	// Err is non-nil when the experiment did not complete.
	Err error
}

// Status summarizes the metric as PASS, FAIL, or ERROR.
func (m RunMetric) Status() string {
	switch {
	case m.Err != nil:
		return "ERROR"
	case m.Pass:
		return "PASS"
	default:
		return "FAIL"
	}
}

// MetricsTable renders per-experiment run metrics as a table, followed
// by a total row. Wall times are rounded to the millisecond so the
// table stays readable; they are measurements, not reproducible values,
// and callers should keep them out of deterministic output streams.
func MetricsTable(ms []RunMetric) *Table {
	t := NewTable("Per-experiment run metrics",
		"experiment", "wall", "sweep rows", "status", "error")
	var total time.Duration
	rows := 0
	for _, m := range ms {
		errText := ""
		if m.Err != nil {
			errText = m.Err.Error()
		}
		t.AddRow(m.ID, m.Wall.Round(time.Millisecond).String(), m.Rows, m.Status(), errText)
		total += m.Wall
		rows += m.Rows
	}
	t.AddRow("total", total.Round(time.Millisecond).String(), rows, "", "")
	return t
}
