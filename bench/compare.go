package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// LoadRecords reads a result file: one Report per line, as -out appends
// them.
func LoadRecords(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rep Report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}

// Bound is a gated metric's regression limit, as BENCHMARK.json states it.
type Bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end bounds from a BENCHMARK.json.
func LoadBounds(path string) (map[string]Bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []Bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Bound, len(spec.EndToEnd))
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// seriesKey names one (workload, metric) series.
type seriesKey struct{ workload, metric string }

// series groups the records' values by workload and metric.
func series(recs []Report) (map[seriesKey][]float64, []seriesKey) {
	out := make(map[seriesKey][]float64)
	var keys []seriesKey
	for _, rec := range recs {
		for _, v := range rec.Metrics {
			k := seriesKey{rec.Workload, v.Name}
			if _, ok := out[k]; !ok {
				keys = append(keys, k)
			}
			out[k] = append(out[k], v.Value)
		}
	}
	return out, keys
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if math.Abs(q2) > 0 {
		return (q3 - q1) / math.Abs(q2)
	}
	return 0
}

// Compare prints, for every (workload, metric) series in a or b, each
// set's count, median and spread, and the change of b's median against
// a's, with a verdict for each gated metric.
func Compare(w io.Writer, a, b []Report, bounds map[string]Bound) error {
	hostsA, hostsB := hostKeys(a), hostKeys(b)
	if len(hostsA) != 1 || len(hostsB) != 1 || hostsA[0] != hostsB[0] {
		fmt.Fprintf(w, "warning: results come from different hosts: %q vs %q\n", hostsA, hostsB)
	}
	sa, keysA := series(a)
	sb, keysB := series(b)
	keys := keysA
	for _, k := range keysB {
		if _, ok := sa[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tmedian A\tspread A\tn\tmedian B\tspread B\tchange\tbound\tverdict")
	for _, k := range keys {
		va, vb := sa[k], sb[k]
		ma, mb := median(va), median(vb)
		change := 0.0
		if math.Abs(ma) > 0 {
			change = (mb - ma) / math.Abs(ma)
		}
		v, bound := "-", "-"
		if bd, ok := bounds[k.metric]; ok && len(va) > 0 && len(vb) > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*bd.Bound)
			v = verdict(bd, change, max(spread(va), spread(vb)))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.1f%%\t%d\t%.6g\t%.1f%%\t%+.1f%%\t%s\t%s\n",
			k.workload, k.metric, len(va), ma, 100*spread(va), len(vb), mb, 100*spread(vb), 100*change, bound, v)
	}
	return tw.Flush()
}

// verdict judges a gated metric whose median changed by change (a share of
// A's median) with the wider of the two sets' spreads: "worse" when the
// change is worse than the bound, whatever the spread; otherwise
// "unresolved" when the spread is wider than the bound, so no change within
// it can be told from noise; otherwise "ok".
func verdict(b Bound, change, spread float64) string {
	worse := change
	if b.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > b.Bound:
		return "worse"
	case spread > b.Bound:
		return "unresolved"
	}
	return "ok"
}

// hostKeys lists the distinct host fingerprints of the records, sorted.
func hostKeys(recs []Report) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range recs {
		k := "unknown"
		if r.Host != nil {
			k = r.Host.Key()
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
