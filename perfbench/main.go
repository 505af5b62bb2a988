// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed for a fixed time, checks every output, and
// prints the end-to-end metrics (or, traced, the per-layer metrics) as the
// last line of standard output. README.md explains the workloads and the
// metric → layer → workload map; BENCHMARK.json is generated from the
// tables in metrics.go by -write-spec.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh --write-spec   # regenerate BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"slate/internal/engine"
)

// hostFacts identify the machine and code a result was measured on.
type hostFacts struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	ModelVersion int    `json:"model_version"`
	Commit       string `json:"commit"`
}

func gatherFacts(workload string, seed int64, seconds int, trace bool) hostFacts {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			commit = rev
			if dirty {
				commit += "+dirty"
			}
		}
	}
	return hostFacts{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), ModelVersion: engine.ModelVersion,
		Commit: commit,
	}
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeSpec := flag.Bool("write-spec", false, "write BENCHMARK.json to the current directory and exit")
	setupProbe := flag.Bool("setup-probe", false, "internal: build the workload's harness and exit (the repro set-up)")
	flag.Parse()

	if *writeSpec {
		if err := writeBenchmarkJSON("BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *setupProbe {
		if wl.ready == nil {
			os.Exit(2)
		}
		wl.ready(*seed)
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(runBench(wl, *seed, *seconds, *trace == 1))
}

// runBench executes one benchmark run and prints its result; it returns the
// process exit code.
func runBench(wl *workload, seed int64, seconds int, traced bool) int {
	facts := gatherFacts(wl.name, seed, seconds, traced)
	hf, _ := json.Marshal(facts)
	fmt.Printf("host %s\n", hf)

	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: seed, dir: dir, led: &ledger{}}
	res := result{Metrics: map[string]metricValue{}}
	var err error
	if traced {
		err = runTraced(wl, e, time.Duration(seconds)*time.Second, facts, res.Metrics)
	} else {
		err = runUntraced(wl, e, time.Duration(seconds)*time.Second, res.Metrics)
	}
	if err != nil {
		e.led.record(fmt.Errorf("run aborted: %w", err))
	}
	attempted, failed, firstErr := e.led.counts()
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0 && attempted > 0
	if firstErr != nil {
		fmt.Printf("FAIL first error: %v\n", firstErr)
	}
	fmt.Printf("fail_ratio %.6f (%d of %d operations failed)\n", e.led.failRatio(), failed, attempted)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runUntraced measures the workload for d and fills the end-to-end metrics.
func runUntraced(wl *workload, e *env, d time.Duration, out map[string]metricValue) error {
	ph, err := wl.measure(e, d)
	if err != nil {
		return err
	}
	ph.report(wl.name)
	for _, m := range endToEnd {
		v, err := ph.endToEnd(m.Name)
		if err != nil {
			return err
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return nil
}

// runTraced measures the workload untraced for half of d and traced for the
// other half (their difference is the tracing overhead), then runs the
// layer probes and fills the per-layer metrics.
func runTraced(wl *workload, e *env, d time.Duration, facts hostFacts, out map[string]metricValue) error {
	plain, err := wl.measure(e, d/2)
	if err != nil {
		return err
	}
	tr := newTracer()
	e.tr = tr
	traced, err := wl.measure(e, d/2)
	if err != nil {
		return err
	}
	traced.report(wl.name + " (traced)")
	lm := layerMetrics{}
	lm["trace.overhead_pct"] = 100 * (traced.unitMedian() - plain.unitMedian()) / plain.unitMedian()

	if err := runProbes(wl, e, traced, lm); err != nil {
		return err
	}
	spans := tr.snapshot()
	lm["trace.spans"] = float64(len(spans))
	layers := selfTimes(spans)
	fmt.Println("self time by layer (traced half and probes):")
	for _, lt := range layers {
		fmt.Printf("  %-28s n=%-7d self %9.4fs  total %9.4fs\n", lt.Name, lt.Count, lt.Self, lt.Total)
	}
	traceDir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", wl.name, e.seed))
	if err := writeTrace(path, facts, spans, layers); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	for _, m := range perLayer {
		v, ok := lm[m.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return nil
}

// rusage returns the process's CPU time so far and its peak resident set.
func rusage() (cpu time.Duration, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}
