package report

import (
	"encoding/csv"
	"errors"
	"strings"
	"testing"
	"time"
)

func sample() *Table {
	t := NewTable("Skew vs size", "n", "skew", "scheme")
	t.AddRow(8, 1.0, "spine")
	t.AddRow(16, 1.23456789, "htree")
	return t
}

func TestRenderText(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Skew vs size", "n", "skew", "scheme", "spine", "htree", "1.235"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "| n | skew | scheme |") {
		t.Errorf("markdown header missing:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- | --- |") {
		t.Errorf("markdown separator missing:\n%s", out)
	}
	if !strings.Contains(out, "**Skew vs size**") {
		t.Errorf("markdown title missing:\n%s", out)
	}
}

func TestRenderCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "n,skew,scheme" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "8,1,spine" {
		t.Errorf("csv row = %q", lines[1])
	}
	if len(lines) != 3 {
		t.Errorf("csv lines = %d", len(lines))
	}
}

// mismatched returns a table whose rows are both wider and narrower
// than its header — the shape that used to panic Render with an
// index-out-of-range on widths.
func mismatched() *Table {
	t := NewTable("ragged", "a", "b")
	t.AddRow(1, 2, 3, 4) // wider than the header
	t.AddRow(5)          // narrower than the header
	t.AddRow(6, 7)
	return t
}

func TestRenderMismatchedRowWidths(t *testing.T) {
	var b strings.Builder
	if err := mismatched().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"1", "4", "5", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMarkdownMismatchedRowWidths(t *testing.T) {
	var b strings.Builder
	if err := mismatched().RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| 1 | 2 | 3 | 4 |") {
		t.Errorf("wide row lost cells:\n%s", b.String())
	}
}

func TestRenderCSVMismatchedRowWidths(t *testing.T) {
	var b strings.Builder
	if err := mismatched().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), b.String())
	}
	if lines[1] != "1,2,3,4" || lines[2] != "5" {
		t.Errorf("csv rows = %q, %q", lines[1], lines[2])
	}
}

func TestRenderCSVQuotesSpecialCharacters(t *testing.T) {
	tbl := NewTable("", "name", "note")
	tbl.AddRow("a,b", "line1\nline2")
	tbl.AddRow(`quote"inside`, "plain")
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(b.String()))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v\n%s", err, b.String())
	}
	if len(records) != 3 {
		t.Fatalf("records = %d", len(records))
	}
	if records[1][0] != "a,b" || records[1][1] != "line1\nline2" {
		t.Errorf("comma/newline cell corrupted: %q", records[1])
	}
	if records[2][0] != `quote"inside` {
		t.Errorf("quote cell corrupted: %q", records[2][0])
	}
}

func TestMetricsTable(t *testing.T) {
	ms := []RunMetric{
		{ID: "E1", Wall: 1500 * time.Millisecond, Rows: 12, Pass: true},
		{ID: "E2", Wall: 250 * time.Millisecond, Rows: 6, Pass: false},
		{ID: "E3", Wall: 40 * time.Millisecond, Rows: 0, Err: errors.New("boom, with comma")},
	}
	if ms[0].Status() != "PASS" || ms[1].Status() != "FAIL" || ms[2].Status() != "ERROR" {
		t.Errorf("statuses = %s %s %s", ms[0].Status(), ms[1].Status(), ms[2].Status())
	}
	tbl := MetricsTable(ms)
	if tbl.NumRows() != 4 { // three experiments + total
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"E1", "1.5s", "PASS", "FAIL", "ERROR", "boom, with comma", "total", "1.79s", "18"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
	// The error cell must survive CSV rendering despite its comma.
	var c strings.Builder
	if err := tbl.RenderCSV(&c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), `"boom, with comma"`) {
		t.Errorf("csv did not quote the error cell:\n%s", c.String())
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := NewTable("", "a")
	if tbl.NumRows() != 0 {
		t.Error("new table has rows")
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "**") {
		t.Error("empty title rendered")
	}
}
