// The committed suppression-audit baseline. It pins the module's exemption
// inventory — every //mosvet:ignore and timing directive — so
// a new exemption fails CI until it is regenerated (and thereby reviewed)
// in the same change. Entries are compared by file, directive, checks, and
// reason; the recorded line is a navigation hint refreshed on regeneration,
// not part of identity, so unrelated edits above a directive do not churn
// CI.
package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

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
