package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The quick configuration keeps each figure to a handful of sub-second
// runs; these tests validate the *shapes* the paper reports, which is what
// the reproduction is accountable for.

func TestFig4Shape(t *testing.T) {
	exp, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := exp.Rows
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// IJ measured time grows with n_e*c_S.
	if !(rows[len(rows)-1].IJMeasured > rows[0].IJMeasured) {
		t.Errorf("IJ not increasing: first %.3fs last %.3fs",
			rows[0].IJMeasured, rows[len(rows)-1].IJMeasured)
	}
	// GH roughly flat: within 40% across the sweep.
	gh0 := rows[0].GHMeasured
	for _, r := range rows {
		if r.GHMeasured > gh0*1.4 || r.GHMeasured < gh0*0.6 {
			t.Errorf("GH not flat: %.3fs vs %.3fs", r.GHMeasured, gh0)
		}
	}
	// Models follow the same ordering as measurements at the extremes.
	if rows[0].ModelWinner() != rows[0].Winner() {
		t.Errorf("low-degree winner: model %s, measured %s", rows[0].ModelWinner(), rows[0].Winner())
	}
	last := rows[len(rows)-1]
	if last.ModelWinner() != last.Winner() {
		t.Errorf("high-degree winner: model %s, measured %s", last.ModelWinner(), last.Winner())
	}
}

// TestFig5Shape runs the quick sweep up to three times and checks the
// shape on per-row medians over the runs so far, stopping at the first
// that has it: the quick config's gaps are ~100 ms, close enough to
// scheduler noise on a small host that one run can blur them.
func TestFig5Shape(t *testing.T) {
	var runs [][]Row
	var failures []string
	for len(runs) < 3 {
		exp, err := Fig5(Quick())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, exp.Rows)
		if failures = fig5ShapeFailures(runs); len(failures) == 0 {
			return
		}
	}
	for _, f := range failures {
		t.Errorf("median of %d runs: %s", len(runs), f)
	}
}

// fig5ShapeFailures checks Fig 5's shape on the runs' per-row medians:
// GH's time decreases with more compute nodes, IJ wins at low n_e*c_S,
// and the IJ-GH gap shrinks with nj (with tolerance for scheduler noise
// on the quick config's ~100ms gaps).
func fig5ShapeFailures(runs [][]Row) []string {
	// median returns row i's median of f over the runs (the mean of two).
	median := func(i int, f func(Row) float64) float64 {
		xs := make([]float64, len(runs))
		for k, rows := range runs {
			xs[k] = f(rows[i])
		}
		slices.Sort(xs)
		return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
	}
	gh := func(r Row) float64 { return r.GHMeasured }
	gap := func(r Row) float64 { return r.GHMeasured - r.IJMeasured }
	rows := runs[0]
	var fails []string
	for i := 1; i < len(rows); i++ {
		if cur, prev := median(i, gh), median(i-1, gh); cur >= prev {
			fails = append(fails, fmt.Sprintf("GH not decreasing: nj=%s %.3fs vs nj=%s %.3fs",
				rows[i].Label, cur, rows[i-1].Label, prev))
		}
	}
	for i, r := range rows {
		if median(i, gap) < 0 {
			fails = append(fails, fmt.Sprintf("nj=%s: GH won a low n_e*c_S dataset", r.Label))
		}
	}
	firstGap, lastGap := median(0, gap), median(len(rows)-1, gap)
	if lastGap > firstGap*0.9+0.02 {
		fails = append(fails, fmt.Sprintf("gap did not shrink: %.3f -> %.3f", firstGap, lastGap))
	}
	return fails
}

func TestFig6Shape(t *testing.T) {
	exp, err := Fig6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := exp.Rows
	if len(rows) < 2 {
		t.Fatal("need at least 2 sizes")
	}
	// Roughly linear: quadrupling T should scale both times by ~4 (±50%).
	ratioT := rows[len(rows)-1].X / rows[0].X
	for _, m := range []struct {
		name        string
		first, last float64
	}{
		{"IJ", rows[0].IJMeasured, rows[len(rows)-1].IJMeasured},
		{"GH", rows[0].GHMeasured, rows[len(rows)-1].GHMeasured},
	} {
		ratio := m.last / m.first
		if ratio < ratioT*0.5 || ratio > ratioT*1.5 {
			t.Errorf("%s not linear: time ratio %.2f for T ratio %.2f", m.name, ratio, ratioT)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	exp, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := exp.Rows
	first, last := rows[0], rows[len(rows)-1]
	// Both grow with record size.
	if !(last.IJMeasured > first.IJMeasured && last.GHMeasured > first.GHMeasured) {
		t.Errorf("times did not grow with attributes: IJ %.3f->%.3f GH %.3f->%.3f",
			first.IJMeasured, last.IJMeasured, first.GHMeasured, last.GHMeasured)
	}
	// GH grows faster (absolute slope).
	if !(last.GHMeasured-first.GHMeasured > last.IJMeasured-first.IJMeasured) {
		t.Errorf("GH slope not steeper: dGH=%.3f dIJ=%.3f",
			last.GHMeasured-first.GHMeasured, last.IJMeasured-first.IJMeasured)
	}
}

func TestFig8Shape(t *testing.T) {
	exp, err := Fig8(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := exp.Rows // ascending relative power
	// IJ's deficit (or surplus) relative to GH improves as power rises.
	firstGap := rows[0].GHMeasured - rows[0].IJMeasured
	lastGap := rows[len(rows)-1].GHMeasured - rows[len(rows)-1].IJMeasured
	if !(lastGap > firstGap) {
		t.Errorf("IJ did not gain with compute power: gap %.3f -> %.3f", firstGap, lastGap)
	}
}

func TestFig9Shape(t *testing.T) {
	exp, err := Fig9(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := exp.Rows
	// IJ beats GH at every point on a shared server.
	for _, r := range rows {
		if r.Winner() != "IJ" {
			t.Errorf("nj=%s: GH won on shared FS", r.Label)
		}
	}
	// GH degrades (or at best stagnates) as compute nodes are added.
	first, last := rows[0], rows[len(rows)-1]
	if last.GHMeasured < first.GHMeasured*0.95 {
		t.Errorf("GH improved with nj on shared FS: %.3fs -> %.3fs",
			first.GHMeasured, last.GHMeasured)
	}
	// IJ does not degrade comparably.
	if last.IJMeasured > first.IJMeasured*1.5 {
		t.Errorf("IJ degraded on shared FS: %.3fs -> %.3fs", first.IJMeasured, last.IJMeasured)
	}
}

func TestPrintFormat(t *testing.T) {
	exp := &Experiment{
		ID: "figX", Title: "demo", XName: "x",
		Rows:  []Row{{Label: "1", IJMeasured: 0.5, GHMeasured: 1.0, IJModel: 0.4, GHModel: 0.9}},
		Notes: []string{"hello"},
	}
	s := exp.String()
	for _, want := range []string{"figX", "demo", "IJ meas(s)", "0.500", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if exp.Rows[0].Winner() != "IJ" || exp.Rows[0].ModelWinner() != "IJ" {
		t.Error("winner helpers wrong")
	}
}

func TestExperimentCSV(t *testing.T) {
	exp := &Experiment{
		ID: "figX", XName: "compute nodes",
		Rows: []Row{
			{Label: "1", IJMeasured: 0.5, GHMeasured: 1.25, IJModel: 0.4, GHModel: 1.0},
			{Label: "2", IJMeasured: 0.25, GHMeasured: 0.625, IJModel: 0.2, GHModel: 0.5},
		},
	}
	var sb strings.Builder
	if err := exp.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv = %q", sb.String())
	}
	if lines[0] != "compute_nodes,ij_measured_s,gh_measured_s,ij_model_s,gh_model_s" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,0.500000,1.250000,0.400000,1.000000" {
		t.Errorf("row = %q", lines[1])
	}
}
