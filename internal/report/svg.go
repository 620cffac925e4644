package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mosaic/internal/experiment"
)

// SVG rendering of the runtime-vs-walk-cycles charts (Figures 3, 7–11):
// measured samples as dots, model predictions as polylines. Pure stdlib —
// the output opens in any browser.

// svgPalette cycles through colour-blind-safe model colours.
var svgPalette = []string{"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9"}

// SVGChart renders the curve as a self-contained SVG document.
func SVGChart(cv *experiment.Curve, width, height int) string {
	if len(cv.Points) == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg"/>`
	}
	const margin = 56
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)

	minC, maxC := cv.Points[0].C, cv.Points[0].C
	minR, maxR := cv.Points[0].R, cv.Points[0].R
	consider := func(c, r float64) {
		minC, maxC = math.Min(minC, c), math.Max(maxC, c)
		minR, maxR = math.Min(minR, r), math.Max(maxR, r)
	}
	for i, p := range cv.Points {
		consider(p.C, p.R)
		for _, preds := range cv.Predictions {
			consider(p.C, preds[i])
		}
	}
	//mosvet:ignore floateq degenerate-axis sentinel: min/max are copied sample values, equal only when truly identical
	if maxC == minC {
		maxC = minC + 1
	}
	// Pad the R range 5% so points don't sit on the frame.
	pad := (maxR - minR) * 0.05
	//mosvet:ignore floateq exact-zero sentinel: pad is 0.0 only when the R range is exactly empty
	if pad == 0 {
		pad = 1
	}
	minR -= pad
	maxR += pad

	x := func(c float64) float64 { return margin + (c-minC)/(maxC-minC)*plotW }
	y := func(r float64) float64 { return float64(height) - margin - (r-minR)/(maxR-minR)*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s on %s</text>`+"\n",
		margin, xmlEscape(cv.Workload), xmlEscape(cv.Platform))

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		margin, height-margin, width-margin, height-margin)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		margin, margin, margin, height-margin)
	// Ticks: 5 per axis.
	for i := 0; i <= 4; i++ {
		c := minC + (maxC-minC)*float64(i)/4
		r := minR + (maxR-minR)*float64(i)/4
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" text-anchor="middle">%s</text>`+"\n",
			x(c), height-margin+16, siFormat(c))
		fmt.Fprintf(&b, `<text x="%d" y="%.0f" text-anchor="end">%s</text>`+"\n",
			margin-6, y(r)+4, siFormat(r))
		fmt.Fprintf(&b, `<line x1="%.0f" y1="%d" x2="%.0f" y2="%d" stroke="black"/>`+"\n",
			x(c), height-margin, x(c), height-margin+4)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.0f" x2="%d" y2="%.0f" stroke="black"/>`+"\n",
			margin-4, y(r), margin, y(r))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">walk cycles C</text>`+"\n",
		width/2, height-12)
	fmt.Fprintf(&b, `<text x="16" y="%d" transform="rotate(-90 16 %d)" text-anchor="middle">runtime R</text>`+"\n",
		height/2, height/2)

	// Model polylines (sorted model names for stable output).
	names := make([]string, 0, len(cv.Predictions))
	for name := range cv.Predictions {
		names = append(names, name)
	}
	sort.Strings(names)
	for k, name := range names {
		color := svgPalette[k%len(svgPalette)]
		var pts []string
		for i, p := range cv.Points {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(p.C), y(cv.Predictions[name][i])))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
			strings.Join(pts, " "), color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="%s">%s (max err %s)</text>`+"\n",
			width-margin-180, margin+16*(k+1), color, xmlEscape(name), Pct(cv.Errors[name]))
	}

	// Measured points on top.
	for _, p := range cv.Points {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="3" fill="black"><title>%s: C=%s R=%s</title></circle>`+"\n",
			x(p.C), y(p.R), xmlEscape(p.Layout), siFormat(p.C), siFormat(p.R))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d">● measured</text>`+"\n", width-margin-180, margin)
	b.WriteString("</svg>\n")
	return b.String()
}

// siFormat renders a count with an SI suffix (1.2M, 340k).
func siFormat(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.2gG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	}
	return fmt.Sprintf("%.3g", v)
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// SVGBars renders a labelled bar chart (log-scale friendly inputs are the
// caller's concern) — used for the Figure 2-style model-error summaries.
func SVGBars(title string, labels []string, values []float64, width, height int) string {
	const margin = 56
	n := len(labels)
	if n == 0 || n != len(values) {
		return `<svg xmlns="http://www.w3.org/2000/svg"/>`
	}
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)
	maxV := values[0]
	for _, v := range values {
		maxV = math.Max(maxV, v)
	}
	if maxV <= 0 {
		maxV = 1
	}
	barW := plotW / float64(n) * 0.7
	gap := plotW / float64(n)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`+"\n", margin, xmlEscape(title))
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n",
		margin, height-margin, width-margin, height-margin)
	for i, v := range values {
		h := v / maxV * plotH
		x := float64(margin) + gap*float64(i) + (gap-barW)/2
		y := float64(height-margin) - h
		color := svgPalette[i%len(svgPalette)]
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
			x, y, barW, h, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle">%s</text>`+"\n",
			x+barW/2, y-4, Pct(v))
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`+"\n",
			x+barW/2, height-margin+16, xmlEscape(labels[i]))
	}
	b.WriteString("</svg>\n")
	return b.String()
}
