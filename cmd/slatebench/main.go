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
	chaosSessions := flag.Int("chaos-sessions", 12, "hostile client sessions per faults chaos run")
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
	if selected == "parbench" {
		// Benchmark mode: not part of -exp all, because it deliberately runs
		// the heaviest sweep twice (cold serial, cold parallel).
		if err := runParbench(dev, *loop, *seed, *parallel, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "slatebench: parbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if selected == "modelbench" {
		// Benchmark mode: not part of -exp all, because it deliberately runs
		// every cold model build twice (legacy path, one-pass path).
		if err := runModelbench(dev, *seed, *modelBenchOut); err != nil {
			fmt.Fprintf(os.Stderr, "slatebench: modelbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if selected == "fleetload" {
		// Benchmark mode: not part of -exp all, because it deliberately runs
		// the 100k-session storm twice (baseline leg, degraded leg) twice
		// over (the byte-identical double run).
		if err := runFleetLoad(*seed, *fleetSessions, *fleetBenchOut); err != nil {
			fmt.Fprintf(os.Stderr, "slatebench: fleetload: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if selected == "dispatch" {
		// Benchmark mode: not part of -exp all, because it times the launch
		// path against a real-fsync durable daemon twice (single, batched).
		if err := runDispatchBench(*dispatchBenchOut); err != nil {
			fmt.Fprintf(os.Stderr, "slatebench: dispatch: %v\n", err)
			os.Exit(1)
		}
		return
	}

	h := harness.New(harness.Config{LoopSeconds: *loop, Dev: dev, Seed: *seed, Parallel: *parallel})

	type experiment struct {
		name string
		run  func() (string, string, error) // render, csv
		svg  func() (string, error)
	}
	experiments := []experiment{
		{name: "fig1", run: func() (string, string, error) {
			r, err := h.Fig1()
			if err != nil {
				return "", "", err
			}
			return r.Render(), r.CSV(), nil
		}, svg: func() (string, error) {
			r, err := h.Fig1()
			if err != nil {
				return "", err
			}
			return r.SVG(), nil
		}},
		{name: "table1", run: func() (string, string, error) {
			return harness.TableIRender(), "", nil
		}},
		{name: "table2", run: func() (string, string, error) {
			prof := profile.New(dev, h.Model)
			if *profileTable != "" {
				if f, err := os.Open(*profileTable); err == nil {
					if err := prof.Load(f); err != nil {
						f.Close()
						return "", "", err
					}
					f.Close()
					fmt.Printf("loaded profile table %s (%d entries)\n", *profileTable, prof.Len())
				}
			}
			r, err := h.TableIIWith(prof)
			if err != nil {
				return "", "", err
			}
			if *profileTable != "" {
				f, err := os.Create(*profileTable)
				if err != nil {
					return "", "", err
				}
				defer f.Close()
				if err := prof.Save(f); err != nil {
					return "", "", err
				}
				fmt.Printf("saved profile table %s (%d entries)\n", *profileTable, prof.Len())
			}
			return r.Render(), r.CSV(), nil
		}},
		{name: "table3", run: func() (string, string, error) {
			r, err := h.TableIII()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "table4", run: func() (string, string, error) {
			r, err := h.TableIV()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "table5", run: func() (string, string, error) {
			r, err := h.TableV()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "fig5", run: func() (string, string, error) {
			r, err := h.Fig5()
			if err != nil {
				return "", "", err
			}
			return r.Render(), r.CSV(), nil
		}, svg: func() (string, error) {
			r, err := h.Fig5()
			if err != nil {
				return "", err
			}
			return r.SVG(), nil
		}},
		{name: "fig6", run: func() (string, string, error) {
			r, err := h.Fig6()
			if err != nil {
				return "", "", err
			}
			return r.Render(), r.CSV(), nil
		}, svg: func() (string, error) {
			r, err := h.Fig6()
			if err != nil {
				return "", err
			}
			return r.SVG(), nil
		}},
		{name: "fig7", run: func() (string, string, error) {
			r, err := h.Fig7()
			if err != nil {
				return "", "", err
			}
			return r.Render(), r.CSV(), nil
		}, svg: func() (string, error) {
			r, err := h.Fig7()
			if err != nil {
				return "", err
			}
			return r.SVG(), nil
		}},
		{name: "ablation", run: func() (string, string, error) {
			r, err := h.Ablations()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "staticmerge", run: func() (string, string, error) {
			r, err := h.StaticMerge()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "triples", run: func() (string, string, error) {
			r, err := h.Triples()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "cloud", run: func() (string, string, error) {
			r, err := h.CloudTrace(harness.CloudTraceConfig{Jobs: 10, Seed: 1})
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "extpairs", run: func() (string, string, error) {
			r, err := h.ExtendedPairs()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "sensitivity", run: func() (string, string, error) {
			r, err := h.Sensitivity()
			if err != nil {
				return "", "", err
			}
			return r.Render(), "", nil
		}},
		{name: "faults", run: func() (string, string, error) {
			r, err := runFaults(*seed, *chaosSessions)
			return r, "", err
		}},
		{name: "overload", run: func() (string, string, error) {
			r, err := runOverload(*seed)
			return r, "", err
		}},
		{name: "crashchaos", run: func() (string, string, error) {
			r, err := runCrashChaos(*seed)
			return r, "", err
		}},
		{name: "fleetchaos", run: func() (string, string, error) {
			r, err := runFleetChaos(*seed)
			return r, "", err
		}},
		{name: "rollingchaos", run: func() (string, string, error) {
			r, err := runRollingChaos(*seed)
			return r, "", err
		}},
	}

	ran := 0
	for _, e := range experiments {
		if selected != "all" && selected != e.name {
			continue
		}
		ran++
		start := time.Now()
		render, csv, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "slatebench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(render)
		fmt.Printf("[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		if *csvDir != "" && csv != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "slatebench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, e.name+".csv")
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "slatebench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		if *svgDir != "" && e.svg != nil {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "slatebench: %v\n", err)
				os.Exit(1)
			}
			svg, err := e.svg() // results are cached inside the harness
			if err != nil {
				fmt.Fprintf(os.Stderr, "slatebench: %s svg: %v\n", e.name, err)
				os.Exit(1)
			}
			path := filepath.Join(*svgDir, e.name+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "slatebench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "slatebench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
