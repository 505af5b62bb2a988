// Package harness regenerates every table and figure of the paper's
// evaluation (§V) on the simulated Titan Xp: Fig. 1 (stream saturation),
// Table II (workload profiles), Table III (GS under CUDA vs Slate),
// Table IV (the BS-RG pair under MPS vs Slate), Table V (overhead
// inventory), Fig. 5 (task-size sweep), Fig. 6 (solo application time
// breakdown), and Fig. 7 (all 15 pairings under CUDA, MPS, and Slate).
//
// Each experiment returns a typed result with a Render method producing the
// text table the paper's figure/table reports, plus CSV for plotting.
package harness

import (
	"fmt"
	"strings"
	"sync"

	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/kern"
	"slate/internal/profile"
	"slate/internal/vtime"
)

// Config parameterizes the harness.
type Config struct {
	// Dev is the device model; nil selects the Titan Xp.
	Dev *device.Device
	// LoopSeconds is the solo-kernel loop target of §V-A3. The paper used
	// ~30 s; the default of 3 s produces identical normalized results in a
	// tenth of the events.
	LoopSeconds float64
	// Parallel bounds the worker pool running independent experiment cells
	// (pairings × schedulers, sweep points, table rows). 0 or 1 runs
	// serially. It is the harness's only parallelism: each cell is one
	// serial simulation. Output is byte-identical at every setting: cells
	// write index-assigned slots and aggregates are computed in a
	// serial-order post-pass, never from arrival order.
	Parallel int
	// Deprecated: ignored; intra-cell parallelism was removed (DESIGN.md §15).
	SimWorkers int
	// Seed drives trace-assembly determinism; 0 selects the calibrated
	// default of 1.
	Seed int64
}

// Harness owns the shared trace-driven performance model, the shared
// profiler, and a solo-time cache so experiments do not re-derive kernel
// locality. All three caches are content-addressed (kern.Spec.Fingerprint)
// and safe for the concurrent experiment cells the Parallel setting runs.
type Harness struct {
	Dev   *device.Device
	Model *engine.TraceModel
	// Prof is the profiler shared by every Slate backend the harness
	// builds; profiles are pure functions of (content, device, model), so
	// sharing changes nothing but wall-clock.
	Prof *profile.Profiler
	Loop float64

	par  int
	seed int64

	mu   sync.Mutex
	solo map[string]*soloEntry // kernel fingerprint → solo-time slot
}

// soloEntry is one single-flight solo measurement; ready is closed once
// sec/err are final.
type soloEntry struct {
	ready chan struct{}
	sec   float64
	err   error
}

// New builds a harness.
func New(cfg Config) *Harness {
	dev := cfg.Dev
	if dev == nil {
		dev = device.TitanXp()
	}
	loop := cfg.LoopSeconds
	if loop <= 0 {
		loop = 3.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	model := engine.NewTraceModel(dev)
	model.Seed = seed
	return &Harness{
		Dev:   dev,
		Model: model,
		Prof:  profile.New(dev, model),
		Loop:  loop,
		par:   cfg.Parallel,
		seed:  seed,
		solo:  map[string]*soloEntry{},
	}
}

// soloKernelSec returns one launch's solo duration under the hardware
// scheduler, cached by the spec's content fingerprint — two kernels sharing
// a name but differing in geometry or work model get separate entries, and
// renamed instances of one kernel share one. Concurrent callers of an
// uncached kernel single-flight behind the first measurement.
func (h *Harness) soloKernelSec(spec *kern.Spec) (float64, error) {
	fp := spec.Fingerprint()
	h.mu.Lock()
	if e, ok := h.solo[fp]; ok {
		h.mu.Unlock()
		<-e.ready
		return e.sec, e.err
	}
	e := &soloEntry{ready: make(chan struct{})}
	h.solo[fp] = e
	h.mu.Unlock()
	m, err := h.soloRun(spec, engine.LaunchOpts{Mode: engine.HardwareSched})
	if err != nil {
		e.err = err
	} else {
		e.sec = m.Duration().Seconds()
	}
	close(e.ready)
	if e.err != nil {
		h.mu.Lock()
		if h.solo[fp] == e {
			delete(h.solo, fp)
		}
		h.mu.Unlock()
	}
	return e.sec, e.err
}

// soloRun executes one launch on a scratch clock.
func (h *Harness) soloRun(spec *kern.Spec, opts engine.LaunchOpts) (engine.Metrics, error) {
	clk := vtime.NewClock()
	e := engine.New(h.Dev, clk, h.Model)
	hd, err := e.Launch(spec, opts)
	if err != nil {
		return engine.Metrics{}, err
	}
	if n := clk.Run(5_000_000); n >= 5_000_000 {
		return engine.Metrics{}, fmt.Errorf("harness: solo run of %q did not converge", spec.Name)
	}
	if !hd.Done() {
		return engine.Metrics{}, fmt.Errorf("harness: kernel %q incomplete", spec.Name)
	}
	return hd.Metrics(), nil
}

// table renders rows as a fixed-width text table.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcell := range header {
		widths[i] = len(hcell)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// csvJoin renders rows as CSV.
func csvJoin(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%+.1f%%", v*100)
}
