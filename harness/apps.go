package harness

import (
	"fmt"

	"slate/internal/cudart"
	"slate/internal/daemon"
	"slate/internal/mps"
	"slate/internal/run"
	"slate/internal/sched"
	"slate/internal/vtime"
	"slate/workloads"
)

// Sched identifies one of the three evaluated schedulers.
type Sched int

// The evaluated schedulers.
const (
	CUDA Sched = iota
	MPS
	Slate
)

func (s Sched) String() string {
	switch s {
	case CUDA:
		return "CUDA"
	case MPS:
		return "MPS"
	case Slate:
		return "Slate"
	default:
		return fmt.Sprintf("Sched(%d)", int(s))
	}
}

// Scheds lists the three schedulers in the paper's reporting order.
func Scheds() []Sched { return []Sched{CUDA, MPS, Slate} }

// runApps executes the given applications concurrently under one scheduler
// on a fresh clock and returns per-app results (in input order).
func (h *Harness) runApps(s Sched, apps []*workloads.App) ([]run.Result, error) {
	jobs, err := h.jobsFor(apps)
	if err != nil {
		return nil, err
	}
	return h.runJobs(s, jobs)
}

// jobsFor builds the ~30s-loop jobs for the given applications, calibrating
// solo times first.
func (h *Harness) jobsFor(apps []*workloads.App) ([]run.Job, error) {
	jobs := make([]run.Job, len(apps))
	for i, app := range apps {
		solo, err := h.soloKernelSec(app.Kernel)
		if err != nil {
			return nil, err
		}
		jobs[i] = run.Job{App: app, Reps: run.Reps30s(solo, h.Loop)}
	}
	return jobs, nil
}

// runJobs executes caller-prepared jobs (custom reps/arrival delays) under
// one scheduler on a fresh clock.
func (h *Harness) runJobs(s Sched, jobs []run.Job) ([]run.Result, error) {
	clk := vtime.NewClock()
	backend, err := h.newBackend(s, clk)
	if err != nil {
		return nil, err
	}
	return run.NewDriver(clk, backend).Run(jobs)
}

// newBackend builds one scheduler's backend on the given clock.
func (h *Harness) newBackend(s Sched, clk *vtime.Clock) (run.Backend, error) {
	switch s {
	case CUDA:
		return cudart.New(h.Dev, clk, h.Model), nil
	case MPS:
		return mps.New(h.Dev, clk, h.Model), nil
	case Slate:
		return h.newSlateSim(clk), nil
	default:
		return nil, fmt.Errorf("harness: unknown scheduler %v", s)
	}
}

// newSlateSim builds a fresh Slate daemon on the given clock, sharing the
// harness's profiler so kernels are profiled once across all cells.
func (h *Harness) newSlateSim(clk *vtime.Clock) *daemon.SimBackend {
	sim := daemon.NewSimWith(h.Dev, clk, h.Model, h.Prof)
	// One-time injection/compilation costs are defined relative to the
	// paper's ~30 s loop methodology; scale them with the configured
	// loop length so shortened runs keep the measured overhead
	// fractions (~1.5% of application time).
	scale := h.Loop / 30.0
	sim.Costs.InjectSeconds *= scale
	sim.Costs.CompileSeconds *= scale
	return sim
}

// runSlateWithDecisions runs jobs under a fresh Slate daemon and returns
// both results and the scheduler's decision log.
func (h *Harness) runSlateWithDecisions(jobs []run.Job) ([]run.Result, []sched.Decision, error) {
	clk := vtime.NewClock()
	sim := h.newSlateSim(clk)
	rs, err := run.NewDriver(clk, sim).Run(jobs)
	if err != nil {
		return nil, nil, err
	}
	return rs, sim.Sched.Decisions(), nil
}

// meanAppSec averages the applications' execution times.
func meanAppSec(rs []run.Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += r.AppSec()
	}
	return sum / float64(len(rs))
}
