package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"slate/internal/kern"
)

// env is one run's shared state: the seed, a scratch directory inside the
// checkout, the operation ledger, the tracer (nil when untraced) and the
// launch accounting of every daemon the run starts.
type env struct {
	seed int64
	dir  string
	led  *ledger
	tr   *tracer

	runs    atomic.Int64 // kernel executions the daemons report
	acked   atomic.Int64 // launches the daemons accepted
	refused atomic.Int64 // launches refused, shed or failed at the client
}

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	// measure sets the workload up (several times, for a steady set-up
	// figure) and runs it for d, checking every output into e.led.
	measure func(e *env, d time.Duration) (*phase, error)
	// modelKernels are the kernels whose address patterns the traces,
	// cache and engine probes time.
	modelKernels func() []*kern.Spec
	// loop is the simulated loop length (seconds) of the vtime probe.
	loop float64
	// ready, for the repro workloads, builds the workload's harness in a
	// set-up probe process (processSetup).
	ready func(seed int64)
	// unsteady, when set, says why the workload stays out of
	// BENCHMARK.json: it runs by name, but its run-to-run spread is too
	// wide to hold a regression bound.
	unsteady string
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

func allWorkloads() []*workload {
	return []*workload{reproCold(), fig7PaperLoop(), fleetSessions(), corunExec()}
}

// phase is what one measuring window produced.
type phase struct {
	setup   []float64     // seconds per set-up
	units   []float64     // seconds per unit of work
	elapsed time.Duration // the measuring window
	cpu     time.Duration // process CPU time spent in the window
	alloc   uint64        // bytes allocated in the window
	rssMB   float64       // peak resident set at the window's end
	// lines are the workload's own named figures, printed as a report.
	lines []string
	// warm re-runs the last unit on its now-warm state (repro workloads).
	warm func() error
}

func (p *phase) unitMedian() float64 { return median(p.units) }

// endToEnd computes one end-to-end metric from the phase.
func (p *phase) endToEnd(name string) (float64, error) {
	if len(p.units) == 0 {
		return 0, fmt.Errorf("no unit of work completed")
	}
	switch name {
	case "setup_s":
		return median(p.setup), nil
	case "alloc_mb_per_unit":
		return float64(p.alloc) / (1 << 20) / float64(len(p.units)), nil
	case "unit_p50_ms":
		return 1e3 * median(p.units), nil
	case "units_per_s":
		return float64(len(p.units)) / p.elapsed.Seconds(), nil
	case "cpu_ms_per_unit":
		return 1e3 * p.cpu.Seconds() / float64(len(p.units)), nil
	}
	return 0, fmt.Errorf("unknown end-to-end metric %s", name)
}

func (p *phase) report(title string) {
	fmt.Printf("%s: %d units in %.2fs, setup median %.3gs over %d, peak RSS %.1f MB\n",
		title, len(p.units), p.elapsed.Seconds(), median(p.setup), len(p.setup), p.rssMB)
	for _, l := range p.lines {
		fmt.Println("  " + l)
	}
}

// window times a measuring window and the CPU and allocation it used.
type window struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64
}

func openWindow() window {
	cpu, _ := rusage()
	return window{start: time.Now(), cpu0: cpu, alloc0: totalAlloc()}
}

// close stores the window's elapsed time, CPU time, allocation and the
// process's peak RSS in p.
func (w window) close(p *phase) {
	p.elapsed = time.Since(w.start)
	cpu, rss := rusage()
	p.cpu = cpu - w.cpu0
	p.alloc = totalAlloc() - w.alloc0
	p.rssMB = rss
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// anotherFits reports whether to start another long unit (a whole
// experiment suite): the first always runs, a later one only if at least
// half of a median unit still fits in the window d. A window thus overruns
// by at most about half a unit, and a run with room for one and a half
// units measures two rather than one.
func anotherFits(start time.Time, d time.Duration, units []float64) bool {
	if len(units) == 0 {
		return true
	}
	half := time.Duration(median(units) / 2 * float64(time.Second))
	return time.Since(start)+half <= d
}
