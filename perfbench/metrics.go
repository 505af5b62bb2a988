package main

import (
	"encoding/json"
	"os"
)

// metricSpec declares one reported metric. Bound, for end-to-end metrics,
// is the share of the parent commit's median by which the metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced metrics, reported by every workload. A "unit"
// is one whole piece of the workload's work: a cold suite (repro-cold), a
// Fig. 7 (fig7-paperloop), a session cycle (fleet-sessions) or a co-run
// round (corun-exec).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_unit", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "unit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_unit", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics (README.md maps each to the
// end-to-end metric and workload it should move).
var perLayer = []metricSpec{
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "traces.assemble_s", Unit: "s", Better: "lower"},
	{Name: "traces.accesses", Unit: "count", Better: "lower"},
	{Name: "cache.mrc_s", Unit: "s", Better: "lower"},
	{Name: "cache.mrc_accesses", Unit: "count", Better: "lower"},
	{Name: "engine.model_build_s", Unit: "s", Better: "lower"},
	{Name: "engine.model_entries", Unit: "count", Better: "lower"},
	{Name: "harness.warm_rerun_s", Unit: "s", Better: "lower"},
	{Name: "vtime.events", Unit: "count", Better: "lower"},
	{Name: "engine.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fleet.route_us", Unit: "us", Better: "lower"},
	{Name: "fleet.open_p50_us", Unit: "us", Better: "lower"},
	{Name: "fleet.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.close_us", Unit: "us", Better: "lower"},
	{Name: "client.launch_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.launch_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.sync_p99_us", Unit: "us", Better: "lower"},
	{Name: "ipc.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "inject.transform_us", Unit: "us", Better: "lower"},
	{Name: "nvrtc.compile_us", Unit: "us", Better: "lower"},
	{Name: "nvrtc.cached_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "journal.append_batch_us", Unit: "us", Better: "lower"},
	{Name: "daemon.solo_mm_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.solo_bs_ms", Unit: "ms", Better: "lower"},
	{Name: "daemon.corun_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "daemon.exec_runs", Unit: "count", Better: "higher"},
	{Name: "daemon.acked_launches", Unit: "count", Better: "higher"},
	{Name: "daemon.refused", Unit: "count", Better: "lower"},
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 50

// spec is BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range allWorkloads() {
		if w.unsteady == "" {
			s.Workloads = append(s.Workloads, workloadSpec{Name: w.name, Why: w.why})
		}
	}
	return s
}

func benchmarkJSON() ([]byte, error) {
	data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func writeBenchmarkJSON(path string) error {
	data, err := benchmarkJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
