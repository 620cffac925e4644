// Machine-readable mosvet output: the JSON report CI archives, the SARIF
// rendering code-scanning UIs ingest, and the committed suppression-audit
// baseline. The baseline pins the module's exemption inventory — every
// //mosvet:ignore, ckptexempt, and timing directive — so a new
// exemption fails CI until it is regenerated (and thereby reviewed) in the
// same change. Entries are compared by file, directive, checks, and reason;
// the recorded line is a navigation hint refreshed on regeneration, not
// part of identity, so unrelated edits above a directive do not churn CI.
package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// JSONFinding is one finding in the machine-readable report.
type JSONFinding struct {
	Check   string `json:"check"`
	File    string `json:"file"` // module-relative
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

// Report is the mosvet -json payload: findings plus the exemption
// inventory, with module-relative paths.
type Report struct {
	Findings     []JSONFinding `json:"findings"`
	Suppressions []Suppression `json:"suppressions"`
}

// BuildReport relativizes a module analysis against its root.
func BuildReport(res *ModuleResult) *Report {
	r := &Report{
		Findings:     []JSONFinding{},
		Suppressions: relativeSuppressions(res),
	}
	for _, f := range res.Findings {
		r.Findings = append(r.Findings, JSONFinding{
			Check:   f.Check,
			File:    relTo(res.Root, f.Pos.Filename),
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Message: f.Message,
		})
	}
	return r
}

func relativeSuppressions(res *ModuleResult) []Suppression {
	out := make([]Suppression, 0, len(res.Suppressions))
	for _, s := range res.Suppressions {
		s.File = relTo(res.Root, s.File)
		out = append(out, s)
	}
	return out
}

func relTo(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// sarif mirrors the minimal SARIF 2.1.0 subset code-scanning consumers
// require: one run, one rule per analyzer, one result per finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders the report as a SARIF 2.1.0 document.
func (r *Report) SARIF() ([]byte, error) {
	run := sarifRun{
		Tool:    sarifTool{Driver: sarifDriver{Name: "mosvet"}},
		Results: []sarifResult{},
	}
	for _, a := range Analyzers() {
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
	}
	// The unsuppressible directive-hygiene pseudo-check also emits results.
	run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{
		ID:               "mosvet",
		ShortDescription: sarifText{Text: "malformed or unknown mosvet directive"},
	})
	for _, f := range r.Findings {
		line := f.Line
		if line < 1 {
			line = 1
		}
		run.Results = append(run.Results, sarifResult{
			RuleID:  f.Check,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: "%SRCROOT%"},
				Region:           sarifRegion{StartLine: line, StartColumn: f.Column},
			}}},
		})
	}
	return json.MarshalIndent(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}, "", "  ")
}

// Baseline is the committed suppression-audit file.
type Baseline struct {
	// Note documents the regeneration command for whoever trips the guard.
	Note         string        `json:"note"`
	Suppressions []Suppression `json:"suppressions"`
}

// BaselineNote is written into every generated baseline.
const BaselineNote = "suppression-audit baseline — regenerate with: go run ./cmd/mosvet -write-baseline mosvet-baseline.json ./... (entries are compared by file/directive/checks/reason; line is a navigation hint)"

// NewBaseline builds the baseline for a module analysis.
func NewBaseline(res *ModuleResult) *Baseline {
	sups := relativeSuppressions(res)
	sort.Slice(sups, func(i, j int) bool {
		a, b := sups[i], sups[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return &Baseline{Note: BaselineNote, Suppressions: sups}
}

// WriteFile writes the baseline as stable, indented JSON.
func (b *Baseline) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaselineFile loads a committed baseline.
func ReadBaselineFile(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: baseline %s: %w", path, err)
	}
	return &b, nil
}

// suppressionKey is the identity used for baseline comparison — the line
// number is deliberately excluded so edits above a directive do not churn
// the audit.
func suppressionKey(s Suppression) string {
	return s.File + "\x00" + s.Directive + "\x00" + strings.Join(s.Checks, ",") + "\x00" + s.Reason
}

// Diff compares the committed baseline against a fresh inventory and
// returns human-readable mismatch lines: exemptions added since the
// baseline (new suppressions that have not been re-audited) and baseline
// entries that no longer exist (stale audit records). Empty means fresh.
func (b *Baseline) Diff(fresh []Suppression) []string {
	count := make(map[string]int)
	detail := make(map[string]Suppression)
	for _, s := range b.Suppressions {
		count[suppressionKey(s)]++
		detail[suppressionKey(s)] = s
	}
	var out []string
	for _, s := range fresh {
		k := suppressionKey(s)
		if count[k] > 0 {
			count[k]--
			continue
		}
		out = append(out, fmt.Sprintf("exemption not in baseline: %s:%d //mosvet:%s %s %s",
			s.File, s.Line, s.Directive, strings.Join(s.Checks, ","), s.Reason))
	}
	keys := make([]string, 0, len(count))
	for k, n := range count {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := detail[k]
		for i := 0; i < count[k]; i++ {
			out = append(out, fmt.Sprintf("baseline entry no longer present: %s //mosvet:%s %s %s",
				s.File, s.Directive, strings.Join(s.Checks, ","), s.Reason))
		}
	}
	return out
}

// VerifyBaseline is the one-call freshness guard used by both the mosvet
// -baseline flag and the root test: load the committed baseline, diff it
// against the module's fresh inventory, and return the mismatches.
func VerifyBaseline(path string, res *ModuleResult) ([]string, error) {
	b, err := ReadBaselineFile(path)
	if err != nil {
		return nil, err
	}
	return b.Diff(relativeSuppressions(res)), nil
}
