// Command slatebench regenerates the paper's evaluation (§V) on the
// simulated Titan Xp: Fig. 1, Tables I-V, Fig. 5, Fig. 6, and Fig. 7.
//
// Usage:
//
//	slatebench -exp all            # everything, text tables to stdout
//	slatebench -exp fig7 -loop 30  # one experiment at full loop length
//	slatebench -exp fig1 -csv out/ # also write CSV series for plotting
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"slate/gpu"
	"slate/harness"
	"slate/internal/profile"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig1|…|fig7|ablation|staticmerge|triples|cloud|extpairs|sensitivity|faults|overload|crashchaos|fleetchaos|rollingchaos|parbench|modelbench|dispatch|fleetload")
	loop := flag.Float64("loop", 3.0, "solo kernel loop target in seconds (paper used ~30)")
	seed := flag.Int64("seed", 1, "trace-model and chaos-driver seed (same seed = same tables)")
	csvDir := flag.String("csv", "", "directory to write CSV series into (optional)")
	svgDir := flag.String("svg", "", "directory to write SVG figures into (optional)")
	devName := flag.String("device", "titanxp", "device preset: titanxp|p100|v100|jetson")
	profileTable := flag.String("profiles", "", "profile-table JSON: loaded if present, saved after table2")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker-pool width for experiment cells (output is byte-identical at any value; 1 = serial)")
	benchOut := flag.String("bench-out", "BENCH_harness.json", "file the parbench experiment writes its record to")
	modelBenchOut := flag.String("model-bench-out", "BENCH_model.json", "file the modelbench experiment writes its record to")
	dispatchBenchOut := flag.String("dispatch-bench-out", "BENCH_dispatch.json", "file the dispatch experiment writes its record to")
	fleetBenchOut := flag.String("fleet-bench-out", "BENCH_fleet.json", "file the fleetload experiment writes its record to")
	fleetSessions := flag.Int("fleet-sessions", 100_000, "concurrent sessions per fleetload leg (CI smoke uses a reduced count)")
	flag.Parse()

	var dev *gpu.Device
	switch strings.ToLower(*devName) {
	case "titanxp":
		dev = gpu.TitanXp()
	case "p100":
		dev = gpu.TeslaP100()
	case "v100":
		dev = gpu.TeslaV100()
	case "jetson":
		dev = gpu.JetsonTX2()
	default:
		fmt.Fprintf(os.Stderr, "slatebench: unknown device %q\n", *devName)
		os.Exit(2)
	}
	fmt.Printf("device: %s\n\n", dev.Name)

	selected := strings.ToLower(*exp)
	// Benchmark modes are not part of -exp all: each deliberately repeats
	// work — parbench the heaviest sweep (cold serial, cold parallel),
	// modelbench every cold model build (legacy path, one-pass path),
	// fleetload the 100k-session storm (baseline leg, degraded leg, each
	// twice for the double run), dispatch the launch path against a
	// real-fsync durable daemon (single, batched).
	benches := map[string]func() error{
		"parbench":   func() error { return runParbench(dev, *loop, *seed, *parallel, *benchOut) },
		"modelbench": func() error { return runModelbench(dev, *seed, *modelBenchOut) },
		"fleetload":  func() error { return runFleetLoad(*seed, *fleetSessions, *fleetBenchOut) },
		"dispatch":   func() error { return runDispatchBench(*dispatchBenchOut) },
	}
	if run, ok := benches[selected]; ok {
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "slatebench: %s: %v\n", selected, err)
			os.Exit(1)
		}
		return
	}

	h := harness.New(harness.Config{LoopSeconds: *loop, Dev: dev, Seed: *seed, Parallel: *parallel})

	// result is what every experiment returns: a render, plus CSV and SVG
	// methods on the results that have them.
	type result = interface{ Render() string }
	// chaos adapts a chaos scenario, whose render is returned with its
	// error so a failure still shows its table.
	chaos := func(run func(seed int64) (string, error)) func() (result, error) {
		return func() (result, error) {
			out, err := run(*seed)
			return text(out), err
		}
	}
	experiments := []struct {
		name string
		run  func() (result, error)
	}{
		{"fig1", func() (result, error) { return h.Fig1() }},
		{"table1", func() (result, error) { return text(harness.TableIRender()), nil }},
		{"table2", func() (result, error) {
			prof := profile.New(dev, h.Model)
			if *profileTable != "" {
				if f, err := os.Open(*profileTable); err == nil {
					if err := prof.Load(f); err != nil {
						f.Close()
						return nil, err
					}
					f.Close()
					fmt.Printf("loaded profile table %s (%d entries)\n", *profileTable, prof.Len())
				}
			}
			r, err := h.TableIIWith(prof)
			if err != nil {
				return nil, err
			}
			if *profileTable != "" {
				f, err := os.Create(*profileTable)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				if err := prof.Save(f); err != nil {
					return nil, err
				}
				fmt.Printf("saved profile table %s (%d entries)\n", *profileTable, prof.Len())
			}
			return r, nil
		}},
		{"table3", func() (result, error) { return h.TableIII() }},
		{"table4", func() (result, error) { return h.TableIV() }},
		{"table5", func() (result, error) { return h.TableV() }},
		{"fig5", func() (result, error) { return h.Fig5() }},
		{"fig6", func() (result, error) { return h.Fig6() }},
		{"fig7", func() (result, error) { return h.Fig7() }},
		{"ablation", func() (result, error) { return h.Ablations() }},
		{"staticmerge", func() (result, error) { return h.StaticMerge() }},
		{"triples", func() (result, error) { return h.Triples() }},
		{"cloud", func() (result, error) {
			return h.CloudTrace(harness.CloudTraceConfig{Jobs: 10, Seed: 1})
		}},
		{"extpairs", func() (result, error) { return h.ExtendedPairs() }},
		{"sensitivity", func() (result, error) { return h.Sensitivity() }},
		{"faults", chaos(runFaults)},
		{"overload", chaos(runOverload)},
		{"crashchaos", chaos(runCrashChaos)},
		{"fleetchaos", chaos(runFleetChaos)},
		{"rollingchaos", chaos(runRollingChaos)},
	}

	ran := 0
	for _, e := range experiments {
		if selected != "all" && selected != e.name {
			continue
		}
		ran++
		start := time.Now()
		res, err := e.run()
		if err != nil {
			if t, ok := res.(text); ok {
				fmt.Println(t)
			}
			fmt.Fprintf(os.Stderr, "slatebench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		if r, ok := res.(interface{ CSV() string }); ok && *csvDir != "" {
			writeSeries(*csvDir, e.name+".csv", r.CSV())
		}
		if r, ok := res.(interface{ SVG() string }); ok && *svgDir != "" {
			writeSeries(*svgDir, e.name+".svg", r.SVG())
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "slatebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// text is a render that is already a string.
type text string

func (t text) Render() string { return string(t) }

// writeSeries writes an experiment's CSV or SVG file into dir; it exits on
// failure.
func writeSeries(dir, file, data string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "slatebench: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "slatebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n\n", path)
}
