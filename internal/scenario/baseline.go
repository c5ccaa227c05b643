package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"faucets/internal/qos"
)

// canonMechanism maps the empty legacy mechanism tag to its meaning:
// every award before mechanisms were pluggable ran first-price.
func canonMechanism(name string) string {
	if name == "" {
		return qos.MechanismFirstPrice
	}
	return name
}

// BaselineSet is the committed multi-report baseline file: one
// ScenarioReport per (scenario, backend, mechanism) triple, keyed by
// BaselineKey.
type BaselineSet struct {
	Reports map[string]*ScenarioReport `json:"reports"`
}

// BaselineKey names one baseline slot: "<scenario>/<backend>/<mechanism>".
func BaselineKey(scenario, backend, mechanism string) string {
	return scenario + "/" + backend + "/" + canonMechanism(mechanism)
}

// Put stores a report under its own key.
func (b *BaselineSet) Put(r *ScenarioReport) {
	if b.Reports == nil {
		b.Reports = map[string]*ScenarioReport{}
	}
	b.Reports[BaselineKey(r.Scenario, r.Backend, r.Mechanism)] = r
}

// Lookup returns the baseline for a triple, or nil if none is pinned.
func (b *BaselineSet) Lookup(scenario, backend, mechanism string) *ScenarioReport {
	if b == nil {
		return nil
	}
	return b.Reports[BaselineKey(scenario, backend, mechanism)]
}

// LoadBaselineSet reads a keyed {"reports": {...}} baseline file. A
// file without a "reports" key is not a baseline set and is refused.
func LoadBaselineSet(path string) (*BaselineSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read baseline: %w", err)
	}
	var set BaselineSet
	if err := json.Unmarshal(blob, &set); err != nil {
		return nil, fmt.Errorf("scenario: parse baseline %s: %w", path, err)
	}
	if set.Reports == nil {
		return nil, fmt.Errorf(`scenario: baseline %s has no "reports" key`, path)
	}
	return &set, nil
}

// WriteJSON writes the set pretty-printed with a trailing newline,
// matching ScenarioReport.WriteJSON conventions (and so stable enough
// to diff byte-for-byte in CI).
func (b *BaselineSet) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: marshal baseline: %w", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("scenario: write baseline: %w", err)
	}
	return nil
}

// FormatComparison renders the head-to-head mechanism table for one
// scenario: one row per report, economics side by side. This is the
// artifact the CI mechanism-matrix job uploads.
func FormatComparison(reports []*ScenarioReport) string {
	rows := append([]*ScenarioReport(nil), reports...)
	sort.SliceStable(rows, func(i, j int) bool {
		return canonMechanism(rows[i].Mechanism) < canonMechanism(rows[j].Mechanism)
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %8s %8s %12s %8s %10s\n",
		"mechanism", "placed", "rejected", "finished", "revenue", "util", "miss-rate")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %8d %8d %8d %12.2f %8.4f %10.4f\n",
			canonMechanism(r.Mechanism), r.Placed, r.Rejected, r.Finished,
			r.Revenue, r.Utilization, r.DeadlineMissRate)
	}
	return sb.String()
}
