package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"slate/harness"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/workloads"
)

// reproCold is the paper's §V suite on a fresh, serial harness: the cold
// trace-model build every slatebench run pays dominates it.
func reproCold() *workload {
	return &workload{
		name: "repro-cold",
		why:  "the paper's section V suite (Tables II-V, Figs. 1, 5, 6, 7) on a fresh serial harness: the cold trace-model build dominates",
		measure: func(e *env, d time.Duration) (*phase, error) {
			// A serial suite runs on one processor. With more, every
			// garbage collection hands work to and waits on an otherwise
			// idle processor, and on a shared VM that wait follows how soon
			// the host runs the idle vCPU again, not the program.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			return measureRepro(e, d, "repro-cold", "suite_s", reproColdConfig(e.seed), runSuite)
		},
		ready:        func(seed int64) { harness.New(reproColdConfig(seed)) },
		modelKernels: appKernels,
		loop:         3,
	}
}

// fig7PaperLoop is Fig. 7 alone at the paper's 30 s loop and slatebench's
// default widths: event simulation in engine/sched/vtime dominates.
func fig7PaperLoop() *workload {
	return &workload{
		name: "fig7-paperloop",
		why:  "Fig. 7 alone at the paper's 30 s loop and slatebench's default widths: event simulation in engine, sched and vtime dominates",
		measure: func(e *env, d time.Duration) (*phase, error) {
			return measureRepro(e, d, "fig7-paperloop", "fig7_s", fig7Config(e.seed), runFig7)
		},
		ready:        func(seed int64) { harness.New(fig7Config(seed)) },
		modelKernels: appKernels,
		loop:         30,
	}
}

func reproColdConfig(seed int64) harness.Config {
	return harness.Config{LoopSeconds: 3, Parallel: 1, SimWorkers: 1, Seed: seed}
}

func fig7Config(seed int64) harness.Config {
	n := runtime.NumCPU()
	return harness.Config{LoopSeconds: 30, Parallel: n, SimWorkers: n, Seed: seed}
}

// appKernels are the five paper applications' model kernels.
func appKernels() []*kern.Spec {
	var out []*kern.Spec
	for _, a := range workloads.Apps() {
		out = append(out, a.Kernel)
	}
	return out
}

// experiment is one harness call: its name and rendered output.
type experiment struct {
	name   string
	render string
}

// suiteRun is what one unit of a repro workload produced: the renders in
// order, and the typed results the shape checks read.
type suiteRun struct {
	exps []experiment
	fig1 *harness.Fig1Result
	t2   *harness.TableIIResult
	t3   *harness.TableIIIResult
	t4   *harness.TableIVResult
	t5   *harness.TableVResult
	fig5 *harness.Fig5Result
	fig6 *harness.Fig6Result
	fig7 *harness.Fig7Result
}

func (s *suiteRun) digest() string {
	h := sha256.New()
	for _, x := range s.exps {
		fmt.Fprintf(h, "== %s\n%s\n", x.name, x.render)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traced wraps one harness call in a span named after it.
func traced[T any](e *env, parent handle, name string, f func() (T, error)) (T, error) {
	h := e.tr.begin(name, 0, parent)
	defer e.tr.end(h)
	return f()
}

// runSuite runs Tables II-V and Figs. 1, 5, 6, 7 in slatebench's order.
func runSuite(e *env, h *harness.Harness, root handle) (*suiteRun, error) {
	s := &suiteRun{}
	var err error
	if s.fig1, err = traced(e, root, "harness.Fig1", h.Fig1); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"fig1", s.fig1.Render()})
	if s.t2, err = traced(e, root, "harness.TableII", h.TableII); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"table2", s.t2.Render()})
	if s.t3, err = traced(e, root, "harness.TableIII", h.TableIII); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"table3", s.t3.Render()})
	if s.t4, err = traced(e, root, "harness.TableIV", h.TableIV); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"table4", s.t4.Render()})
	if s.t5, err = traced(e, root, "harness.TableV", h.TableV); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"table5", s.t5.Render()})
	if s.fig5, err = traced(e, root, "harness.Fig5", h.Fig5); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"fig5", s.fig5.Render()})
	if s.fig6, err = traced(e, root, "harness.Fig6", h.Fig6); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"fig6", s.fig6.Render()})
	if s.fig7, err = traced(e, root, "harness.Fig7", h.Fig7); err != nil {
		return nil, err
	}
	s.exps = append(s.exps, experiment{"fig7", s.fig7.Render()})
	return s, nil
}

// runFig7 runs Fig. 7 alone.
func runFig7(e *env, h *harness.Harness, root handle) (*suiteRun, error) {
	r, err := traced(e, root, "harness.Fig7", h.Fig7)
	if err != nil {
		return nil, err
	}
	return &suiteRun{fig7: r, exps: []experiment{{"fig7", r.Render()}}}, nil
}

// measureRepro times the set-up (processSetup), then runs whole units —
// each on a fresh harness, so every unit pays the cold model build — while
// anotherFits. Every unit's renders are checked.
func measureRepro(e *env, d time.Duration, name, label string, cfg harness.Config,
	unit func(*env, *harness.Harness, handle) (*suiteRun, error)) (*phase, error) {
	setup, err := processSetup(name, e.seed)
	if err != nil {
		return nil, err
	}
	p := &phase{setup: setup}
	var last *harness.Harness
	var digest string
	w := openWindow()
	for anotherFits(w.start, d, p.units) {
		// Drop the previous unit's harness first: kept alive, its caches
		// would be marked by every garbage collection of the next unit.
		last = nil
		t0 := time.Now()
		h := harness.New(cfg)
		root := e.tr.begin("harness.unit", e.tr.newGroup(), handle{})
		s, err := unit(e, h, root)
		e.tr.end(root)
		if err != nil {
			return nil, err
		}
		p.units = append(p.units, time.Since(t0).Seconds())
		digest = s.digest()
		checkRepro(e.led, name, e.seed, s)
		last = h
	}
	w.close(p)
	p.lines = append(p.lines,
		fmt.Sprintf("%s %.3f s (median of %d cold units at GOMAXPROCS %d: %s)",
			label, p.unitMedian(), len(p.units), runtime.GOMAXPROCS(0), secondsList(p.units)),
		fmt.Sprintf("render digest %s (model version %d, seed %d)", digest, engine.ModelVersion, e.seed))
	p.warm = func() error {
		root := e.tr.begin("harness.warm_rerun", e.tr.newGroup(), handle{})
		s, err := unit(e, last, root)
		e.tr.end(root)
		if err != nil {
			return err
		}
		e.led.record(matchDigest("warm rerun", s.digest(), digest))
		return nil
	}
	return p, nil
}

// setupSpawns is how many fresh processes processSetup starts.
const setupSpawns = 51

// processSetup is the repro workloads' set-up: the time a fresh process of
// this program takes from exec to a ready harness (Go runtime start, the
// whole program's package initialisation, harness.New) and exit. A
// harness.New alone takes under a microsecond, too little to time steadily,
// and work moved into package initialisation would not show in it.
func processSetup(workload string, seed int64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupSpawns)
	for i := 0; i < setupSpawns; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe process: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func matchDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: render digest %s, want %s", what, got[:16], want[:16])
	}
	return nil
}

// checkRepro judges one unit's renders: against the digest stored for
// (workload, model version, seed) when there is one, else against the paper
// shapes EXPERIMENTS.md records. Each check is one ledger operation.
func checkRepro(led *ledger, workload string, seed int64, s *suiteRun) {
	if want, ok := storedDigest(workload, engine.ModelVersion, seed); ok {
		led.record(matchDigest(workload, s.digest(), want))
		return
	}
	for _, err := range shapeChecks(s) {
		led.record(err)
	}
}

// shapeChecks are the paper's shapes (EXPERIMENTS.md, mirrored from the
// harness package's tests) over whichever results the unit produced. Each
// returned entry is one check: nil passed.
func shapeChecks(s *suiteRun) []error {
	var out []error
	add := func(ok bool, format string, args ...any) {
		if ok {
			out = append(out, nil)
		} else {
			out = append(out, fmt.Errorf("shape: "+format, args...))
		}
	}
	if r := s.fig1; r != nil {
		add(r.KneeSMs >= 8 && r.KneeSMs <= 10, "Fig. 1 knee at %d SMs, paper 9", r.KneeSMs)
		final := r.Points[len(r.Points)-1].BandwidthGBs
		add(final >= 400 && final <= 500, "Fig. 1 saturated bandwidth %.0f GB/s, want near 480", final)
	}
	if r := s.t2; r != nil {
		want := map[string]string{"BS": "M_M", "GS": "M_M", "MM": "M_M", "RG": "L_C", "TR": "H_M"}
		for _, row := range r.Rows {
			add(row.Class.String() == want[row.Code], "Table II %s classified %s, want %s", row.Code, row.Class, want[row.Code])
		}
	}
	if r := s.t3; r != nil {
		gain := r.Slate.AccessBW()/r.CUDA.AccessBW() - 1
		add(gain >= 0.2 && gain <= 0.55, "Table III GS bandwidth gain %.0f%%, paper +38%%", gain*100)
	}
	if r := s.t4; r != nil {
		add(r.ThroughputGain >= 0.15 && r.ThroughputGain <= 0.55, "Table IV BS-RG gain %.1f%%, paper +30.55%%", r.ThroughputGain*100)
		add(r.IPC[1]/r.IPC[0]-1 >= 0.2, "Table IV IPC gain %.0f%%, paper +71%%", (r.IPC[1]/r.IPC[0]-1)*100)
	}
	if r := s.t5; r != nil {
		add(len(r.Rows) == 5, "Table V has %d rows, want 5", len(r.Rows))
	}
	if r := s.fig5; r != nil {
		t1, t10 := indexOf(r.TaskSizes, 1), indexOf(r.TaskSizes, 10)
		for _, row := range r.Rows {
			switch row.Code {
			case "GS":
				ratio := row.Seconds[t1] / row.Seconds[t10]
				add(ratio >= 1.5 && ratio <= 2.8, "Fig. 5 GS task1/task10 = %.2f, paper about 2", ratio)
			case "BS":
				add(row.Seconds[t1] < row.Seconds[t10], "Fig. 5 BS task 1 does not beat task 10")
			}
		}
	}
	if r := s.fig6; r != nil {
		app := map[string]map[harness.Sched]float64{}
		for _, row := range r.Rows {
			if app[row.Code] == nil {
				app[row.Code] = map[harness.Sched]float64{}
			}
			app[row.Code][row.Sched] = row.AppSec
		}
		gs := 1 - app["GS"][harness.Slate]/app["GS"][harness.CUDA]
		add(gs >= 0.10 && gs <= 0.35, "Fig. 6 GS Slate gain %.0f%%, paper about 28%%", gs*100)
		for code, t := range app {
			add(t[harness.Slate]/t[harness.CUDA] <= 1.12, "Fig. 6 %s Slate %.2fx CUDA", code, t[harness.Slate]/t[harness.CUDA])
		}
	}
	if r := s.fig7; r != nil {
		add(len(r.Rows) == 15, "Fig. 7 has %d pairings, want 15", len(r.Rows))
		add(r.SlateVsMPS >= 0.06 && r.SlateVsMPS <= 0.20, "Fig. 7 Slate vs MPS %.1f%%, paper +11%%", r.SlateVsMPS*100)
		add(r.BestGain >= 0.25 && strings.Contains(r.BestPair, "RG"), "Fig. 7 best pair %s %+.0f%%, want an RG pairing at +25%% or more", r.BestPair, r.BestGain*100)
		add(r.WorstGain >= -0.10 && strings.Contains(r.WorstPair, "BS"), "Fig. 7 worst pair %s %+.0f%%, want a small BS regression", r.WorstPair, r.WorstGain*100)
		for _, row := range r.Rows {
			if strings.Contains(row.Pair, "RG") {
				gain := row.MeanSec[harness.MPS]/row.MeanSec[harness.Slate] - 1
				add(gain >= 0.05, "Fig. 7 RG pairing %s gains only %.1f%%", row.Pair, gain*100)
			}
		}
	}
	return out
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}
