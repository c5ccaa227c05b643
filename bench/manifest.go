package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// printManifest writes BENCHMARK.json as this bench defines it, so the
// file at the repository root is generated, not typed:
//
//	go run ./bench -manifest > BENCHMARK.json
func printManifest(w io.Writer) int {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bound struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bound    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		if !wl.unbound {
			m.Workloads = append(m.Workloads, workload{wl.Name, wl.Why})
		}
	}
	for _, e := range endToEnd[:driverMetrics] {
		m.EndToEnd = append(m.EndToEnd, bound{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, layer(l))
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		logf("manifest: %v", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", blob)
	return 0
}
