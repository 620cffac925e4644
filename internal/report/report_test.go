package report

import (
	"strings"
	"testing"

	"mosaic/internal/experiment"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("long-name", "12345")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	// All rows end aligned: same width.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Error("header missing")
	}
	// Short rows are padded without panicking.
	tb.AddRow("only-one")
	_ = tb.String()
}

func TestPct(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.92, "192%"},
		{0.25, "25%"},
		{0.063, "6.3%"},
		{0.0029, "0.29%"},
	}
	for _, c := range cases {
		if got := Pct(c.in); got != c.want {
			t.Errorf("Pct(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestModelErrorTable(t *testing.T) {
	out := ModelErrorTable("title", map[string]float64{"basu": 1.92, "yaniv": 0.25}, []string{"basu", "yaniv", "missing"})
	if !strings.Contains(out, "title") || !strings.Contains(out, "192%") || !strings.Contains(out, "25%") {
		t.Errorf("output = %q", out)
	}
	if strings.Contains(out, "missing") {
		t.Error("absent models should be skipped")
	}
}

func TestPerBenchmarkTable(t *testing.T) {
	pb := &experiment.PerBenchErrors{
		Platform:  "SandyBridge",
		Workloads: []string{"gups/8GB"},
		Models:    []string{"basu", "mosmodel"},
		Max:       [][]float64{{0.5, 0.01}},
		Geo:       [][]float64{{0.1, 0.001}},
	}
	out := PerBenchmarkTable("t", pb, false)
	if !strings.Contains(out, "gups/8GB") || !strings.Contains(out, "50%") {
		t.Errorf("max table = %q", out)
	}
	out = PerBenchmarkTable("t", pb, true)
	if !strings.Contains(out, "10%") {
		t.Errorf("geo table = %q", out)
	}
}

func TestChart(t *testing.T) {
	cv := &experiment.Curve{
		Workload: "w",
		Platform: "p",
		Points: []experiment.CurvePoint{
			{Layout: "2MB", C: 0, R: 100},
			{Layout: "mid", C: 50, R: 150},
			{Layout: "4KB", C: 100, R: 200},
		},
		Predictions: map[string][]float64{"poly1": {100, 150, 200}},
		Errors:      map[string]float64{"poly1": 0.0},
	}
	out := Chart(cv, 40, 10, map[string]rune{"poly1": '-'})
	if !strings.Contains(out, "w on p") {
		t.Error("missing chart title")
	}
	if !strings.Contains(out, "o measured") || !strings.Contains(out, "- poly1") {
		t.Error("missing legend")
	}
	if strings.Count(out, "o") < 3 {
		t.Errorf("expected at least 3 measured points:\n%s", out)
	}
	// Empty curve doesn't panic.
	if got := Chart(&experiment.Curve{}, 10, 5, nil); !strings.Contains(got, "no data") {
		t.Error("empty curve should say so")
	}
	// Degenerate (single-point) curve doesn't divide by zero.
	one := &experiment.Curve{Points: []experiment.CurvePoint{{C: 5, R: 5}}}
	_ = Chart(one, 10, 5, nil)
}

func TestTable7Text(t *testing.T) {
	ds := &experiment.Dataset{Workload: "w", Platform: "p"}
	rows := []experiment.Table7Row{
		{Name: "runtime cycles", Program4K: 1320, Program2M: 1155},
		{Name: "L3 loads", Program4K: 22, Program2M: 20, Walker4K: 1, Walker2M: 0, WalkerSplit: true},
	}
	out := Table7Text(ds, rows)
	if !strings.Contains(out, "runtime cycles") || !strings.Contains(out, "1320") {
		t.Errorf("out = %q", out)
	}
	if !strings.Contains(out, "walker 4KB") {
		t.Error("missing walker columns")
	}
}

func TestTable8Text(t *testing.T) {
	rows := []experiment.Table8Row{
		{Workload: "gups/8GB", R2: map[string][3]float64{"SandyBridge": {1, 0.99, 0.95}}},
	}
	out := Table8Text(rows, []string{"SandyBridge", "Haswell"})
	if !strings.Contains(out, "gups/8GB") || !strings.Contains(out, "1.00") || !strings.Contains(out, "0.99") {
		t.Errorf("out = %q", out)
	}
	// Missing platform renders placeholders.
	if !strings.Contains(out, "-") {
		t.Error("missing-platform placeholder absent")
	}
}

func TestSVGChart(t *testing.T) {
	cv := &experiment.Curve{
		Workload: "w<&>",
		Platform: "p",
		Points: []experiment.CurvePoint{
			{Layout: "2MB", C: 0, R: 100},
			{Layout: "mid", C: 50, R: 150},
			{Layout: "4KB", C: 100, R: 200},
		},
		Predictions: map[string][]float64{
			"poly1":    {100, 150, 200},
			"mosmodel": {101, 149, 200},
		},
		Errors: map[string]float64{"poly1": 0.0, "mosmodel": 0.01},
	}
	out := SVGChart(cv, 720, 440)
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "circle",
		"poly1", "mosmodel", "walk cycles C", "runtime R",
		"w&lt;&amp;&gt;", // title is escaped
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Contains(out, "w<&>") {
		t.Error("unescaped title leaked into SVG")
	}
	// Three measured circles.
	if got := strings.Count(out, "<circle"); got != 3 {
		t.Errorf("%d circles, want 3", got)
	}
	// Empty chart is still valid SVG.
	if got := SVGChart(&experiment.Curve{}, 10, 10); !strings.Contains(got, "<svg") {
		t.Error("empty chart not an SVG")
	}
}

func TestSIFormat(t *testing.T) {
	cases := map[float64]string{
		1500:          "1.5k",
		2_500_000:     "2.5M",
		3_000_000_000: "3G",
		12:            "12",
	}
	for in, want := range cases {
		if got := siFormat(in); got != want {
			t.Errorf("siFormat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSVGBars(t *testing.T) {
	out := SVGBars("Figure 2a", []string{"basu", "yaniv"}, []float64{1.92, 0.25}, 640, 360)
	for _, want := range []string{"<svg", "</svg>", "basu", "yaniv", "192%", "25%", "<rect"} {
		if !strings.Contains(out, want) {
			t.Errorf("bar SVG missing %q", want)
		}
	}
	// Degenerate inputs stay valid.
	if got := SVGBars("t", nil, nil, 100, 100); !strings.Contains(got, "<svg") {
		t.Error("empty bars not an SVG")
	}
	if got := SVGBars("t", []string{"a"}, []float64{0}, 100, 100); !strings.Contains(got, "<svg") {
		t.Error("zero-value bars not an SVG")
	}
}
