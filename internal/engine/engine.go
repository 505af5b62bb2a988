// Package engine is the discrete-event GPU execution engine. Kernels
// progress at piecewise-constant rates between scheduling events (launch,
// completion, resize); at each event the engine recomputes every running
// kernel's block-completion rate from the device model:
//
//   - compute: SM share × peak issue × kernel efficiency × warp-occupancy ramp
//   - L2: accessed-byte ceiling scaled by SM share
//   - DRAM: per-kernel streaming ceiling (Fig. 1 knee) × run-length
//     efficiency, arbitrated across co-runners on the shared bus
//   - service floor: per-block dispatch latency (hardware) or task-queue
//     atomic (Slate), amortized over the active workers
//
// The L2 is partitioned among co-runners by access demand and each kernel's
// hit rate is read off its miss-ratio curve at its share — computed by the
// real cache simulator over the kernel's synthetic trace in the appropriate
// block order.
package engine

import (
	"fmt"
	"math"
	"sort"

	"slate/internal/device"
	"slate/internal/kern"
	"slate/internal/vtime"
)

// Mode selects the block-scheduling regime for a kernel instance.
type Mode int

// Scheduling modes.
const (
	// HardwareSched is the stock block-oriented hardware scheduler: blocks
	// are dispatched to SMs in jittered wave order.
	HardwareSched Mode = iota
	// SlateSched runs the transformed kernel: persistent workers bound to
	// an SM range pull in-order tasks from the queue.
	SlateSched
)

func (m Mode) String() string {
	switch m {
	case HardwareSched:
		return "hardware"
	case SlateSched:
		return "slate"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PerfModel supplies the locality parameters for a kernel under a given
// scheduling regime. Implementations may run real cache simulations
// (TraceModel) or return fixed values (StaticModel, for tests).
//
// Implementations must be safe for concurrent lookups: the harness runs
// independent experiment cells on a worker pool, each with its own engine,
// and every cell shares one TraceModel. TraceModel's singleflight entry
// cache and the stateless StaticModel both satisfy this.
type PerfModel interface {
	// HitRate returns the kernel's L2 hit rate when it effectively owns
	// l2Bytes of cache under the given mode and task size.
	HitRate(spec *kern.Spec, mode Mode, taskSize int, l2Bytes float64) float64
	// MeanRunBytes returns the mean sequential run length of the kernel's
	// first-touch DRAM stream under the given mode and task size.
	MeanRunBytes(spec *kern.Spec, mode Mode, taskSize int) float64
}

// LaunchOpts configures a kernel instance.
type LaunchOpts struct {
	Mode Mode
	// TaskSize is the SLATE_ITERS grouping (Slate mode; <=0 selects 10).
	TaskSize int
	// SMLow and SMHigh bound the designated SM range, inclusive (Slate
	// mode). Hardware mode ignores them and competes for the whole device.
	SMLow, SMHigh int
	// Priority orders leftover allocation (lower = earlier arrival wins).
	// Defaults to launch order.
	Priority int
}

// Metrics accumulates a kernel instance's counters, the source of the
// nvprof-style numbers in Tables II-IV.
type Metrics struct {
	Launched  vtime.Time
	Completed vtime.Time
	// Busy is the time during which the kernel had a nonzero allocation.
	Busy vtime.Duration
	// FLOPs, L2Bytes, DRAMBytes, Instr are totals over the execution.
	FLOPs     float64
	L2Bytes   float64
	DRAMBytes float64
	Instr     float64
	// StallMemThrottle is the time-weighted fraction of execution in which
	// the DRAM bus, not compute, limited progress (nvprof's memory
	// throttle stall reason).
	StallMemThrottle float64
	// Atomics counts task-queue pulls (Slate mode).
	Atomics int64
	// Resizes counts dynamic SM-range adjustments.
	Resizes int
	// SMSecondsIntegral accumulates ∫ SMs dt, for IPC normalization.
	SMSecondsIntegral float64
}

// Duration returns the kernel's makespan.
func (m Metrics) Duration() vtime.Duration { return m.Completed.Sub(m.Launched) }

// GFLOPS returns achieved GFLOP/s over the makespan.
func (m Metrics) GFLOPS() float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return m.FLOPs / d / 1e9
}

// AccessBW returns the achieved L2-visible access bandwidth in GB/s — the
// sum of global load and store throughput as nvprof reports it.
func (m Metrics) AccessBW() float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return m.L2Bytes / d / 1e9
}

// DRAMBW returns the achieved DRAM bandwidth in GB/s.
func (m Metrics) DRAMBW() float64 {
	d := m.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return m.DRAMBytes / d / 1e9
}

// IPC returns instructions per SM-cycle averaged over the SMs the kernel
// actually occupied.
func (m Metrics) IPC(clockHz float64) float64 {
	if m.SMSecondsIntegral <= 0 {
		return 0
	}
	return m.Instr / (m.SMSecondsIntegral * clockHz)
}

// Handle identifies a running (or completed) kernel instance.
type Handle struct {
	id         int
	spec       *kern.Spec
	opts       LaunchOpts
	numBlocks  float64
	blocksDone float64
	metrics    Metrics
	done       bool
	evicted    bool
	onComplete []func(vtime.Time)

	// cached static parameters
	warpsPerBlock float64
	maxWorkers    int // per current SM range (Slate) or device capacity (hardware)

	// dynamic state
	pausedUntil vtime.Time
	completion  *vtime.Event
	checkpoint  *vtime.Event

	// last computed rate snapshot (blocks/sec and per-block resource use)
	rate        float64
	dramPerBlk  float64
	hitRate     float64
	memThrottle float64
	smAlloc     float64

	// rate/allocation at which the pending completion and checkpoint
	// events were scheduled; when both are bitwise-unchanged by a
	// recompute, the events still describe the correct schedule and the
	// cancel-and-reschedule churn is skipped.
	schedRate  float64
	schedAlloc float64
}

// Spec returns the kernel descriptor.
func (h *Handle) Spec() *kern.Spec { return h.spec }

// Done reports whether the instance has completed (or was evicted).
func (h *Handle) Done() bool { return h.done }

// Evicted reports whether the instance was stopped by Evict rather than
// running to completion. Its Metrics are partial: they cover only the blocks
// executed before the eviction point.
func (h *Handle) Evicted() bool { return h.evicted }

// Metrics returns a copy of the instance's counters (final after Done).
func (h *Handle) Metrics() Metrics { return h.metrics }

// Progress returns completed blocks (the slateIdx the dispatch kernel
// carries across relaunches).
func (h *Handle) Progress() float64 { return h.blocksDone }

// SMRange returns the current designated range (Slate mode).
func (h *Handle) SMRange() (low, high int) { return h.opts.SMLow, h.opts.SMHigh }

// Engine drives kernel execution on one device.
type Engine struct {
	Dev   *device.Device
	Clock *vtime.Clock
	Model PerfModel

	// RescheduleEveryEvent disables the completion-event reschedule skip
	// so tests can measure the event churn it removes.
	RescheduleEveryEvent bool

	nextID     int
	running    []*Handle
	lastUpdate vtime.Time

	// scratch holds the per-recompute working buffers. recompute runs on
	// every simulation event, and without reuse these allocations dominate
	// the event loop's profile.
	scratch engineScratch
	sorter  prioSorter
}

// engineScratch is the reusable working set of allocate/computeRates.
type engineScratch struct {
	alloc, shares, demands, uncon, accessRates []float64
	snaps                                      []rateSnap
	order                                      []int
}

// rateSnap is one kernel's rate snapshot within the fixpoint.
type rateSnap struct {
	rate, dramPB, hit, throttle float64
}

// prioSorter orders hardware-kernel indices by priority without the
// per-call closure allocation of sort.Slice. Equal priorities fall back to
// kernel index, making the permutation unique (and therefore stable across
// sort-algorithm internals).
type prioSorter struct {
	order   []int
	running []*Handle
}

func (p *prioSorter) Len() int { return len(p.order) }
func (p *prioSorter) Less(a, b int) bool {
	pa := p.running[p.order[a]].opts.Priority
	pb := p.running[p.order[b]].opts.Priority
	if pa != pb {
		return pa < pb
	}
	return p.order[a] < p.order[b]
}
func (p *prioSorter) Swap(a, b int) { p.order[a], p.order[b] = p.order[b], p.order[a] }

// f64Scratch returns buf resized to n, reallocating only on growth. The
// caller is responsible for (re)initializing the contents.
func f64Scratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// New constructs an engine. The device must validate.
func New(dev *device.Device, clock *vtime.Clock, model PerfModel) *Engine {
	if err := dev.Validate(); err != nil {
		panic(err)
	}
	return &Engine{Dev: dev, Clock: clock, Model: model}
}

// Running returns the live instance count.
func (e *Engine) Running() int { return len(e.running) }

// Sync integrates every running kernel's progress up to the current virtual
// time so Progress and Metrics reads are current. Rates are unchanged; it is
// safe to call from any event callback.
func (e *Engine) Sync() { e.advanceProgress(e.Clock.Now()) }

// Launch starts a kernel instance now and returns its handle.
func (e *Engine) Launch(spec *kern.Spec, opts LaunchOpts) (*Handle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.TaskSize <= 0 {
		opts.TaskSize = 10
	}
	if opts.Mode == SlateSched {
		if opts.SMLow < 0 || opts.SMHigh >= e.Dev.NumSMs || opts.SMLow > opts.SMHigh {
			return nil, fmt.Errorf("engine: invalid SM range [%d,%d] on %d-SM device", opts.SMLow, opts.SMHigh, e.Dev.NumSMs)
		}
	} else {
		opts.SMLow, opts.SMHigh = 0, e.Dev.NumSMs-1
	}
	if opts.Priority == 0 {
		opts.Priority = e.nextID + 1
	}
	resident := e.Dev.ResidentBlocks(spec.Shape())
	if resident == 0 {
		return nil, fmt.Errorf("engine: kernel %q block shape does not fit on an SM", spec.Name)
	}
	h := &Handle{
		id:            e.nextID,
		spec:          spec,
		opts:          opts,
		numBlocks:     float64(spec.NumBlocks()),
		warpsPerBlock: float64(spec.Shape().Warps()),
	}
	e.nextID++
	h.metrics.Launched = e.Clock.Now()
	e.running = append(e.running, h)
	e.recompute(e.Clock.Now())
	return h, nil
}

// OnComplete registers a callback fired when the instance finishes. If the
// instance already finished, the callback fires immediately.
func (e *Engine) OnComplete(h *Handle, fn func(vtime.Time)) {
	if h.done {
		fn(e.Clock.Now())
		return
	}
	h.onComplete = append(h.onComplete, fn)
}

// Resize changes a Slate instance's designated SM range. The instance pays
// the device's resize penalty (retreat, drain, relaunch) before progressing
// on the new range; its queue cursor carries over.
func (e *Engine) Resize(h *Handle, smLow, smHigh int) error {
	if h.done {
		return fmt.Errorf("engine: resize of completed kernel %q", h.spec.Name)
	}
	if h.opts.Mode != SlateSched {
		return fmt.Errorf("engine: resize requires Slate scheduling")
	}
	if smLow < 0 || smHigh >= e.Dev.NumSMs || smLow > smHigh {
		return fmt.Errorf("engine: invalid SM range [%d,%d]", smLow, smHigh)
	}
	now := e.Clock.Now()
	e.advanceProgress(now)
	h.opts.SMLow, h.opts.SMHigh = smLow, smHigh
	h.metrics.Resizes++
	h.pausedUntil = now.Add(vtime.FromSeconds(e.Dev.ResizeSeconds))
	e.Clock.At(h.pausedUntil, func(t vtime.Time) { e.recompute(t) })
	e.recompute(now)
	return nil
}

// Evict stops a running instance at a block boundary — the software
// analogue of the containment MPS cannot provide (§III): because Slate
// dispatches work in task-sized pulls from a queue, the runtime can simply
// stop granting tasks and reclaim the SM range at the next boundary. The
// instance is marked done (and Evicted), its partial Metrics are finalized
// and returned, its SM range frees immediately for co-runners, and its
// OnComplete callbacks do NOT fire — eviction is the caller's decision and
// the caller owns the aftermath (requeue, quarantine, abandon).
func (e *Engine) Evict(h *Handle) (Metrics, error) {
	if h.done {
		return h.metrics, fmt.Errorf("engine: evict of completed kernel %q", h.spec.Name)
	}
	now := e.Clock.Now()
	e.advanceProgress(now)
	// Stop at the enclosing block boundary: a block that has started finishes
	// (the queue pull is irrevocable, Listing 2), partial blocks do not count.
	h.blocksDone = math.Floor(h.blocksDone)
	if h.blocksDone > h.numBlocks {
		h.blocksDone = h.numBlocks
	}
	h.done = true
	h.evicted = true
	h.metrics.Completed = now
	if h.metrics.Busy > 0 {
		h.metrics.StallMemThrottle /= h.metrics.Busy.Seconds()
	}
	if h.completion != nil {
		e.Clock.Cancel(h.completion)
		h.completion = nil
	}
	if h.checkpoint != nil {
		e.Clock.Cancel(h.checkpoint)
		h.checkpoint = nil
	}
	for i, r := range e.running {
		if r == h {
			e.running = append(e.running[:i], e.running[i+1:]...)
			break
		}
	}
	// Reallocate: survivors see the freed SMs at once.
	e.recompute(now)
	return h.metrics, nil
}

// Stall freezes a running instance for d of virtual time: its allocation
// drops to zero and its progress stops, modeling a runaway kernel wedged in
// a retreat/relaunch cycle or an infinite loop. It is the engine-level fault
// injection the watchdog exists to catch. Stalling an instance again before
// the first stall elapses extends the stall.
func (e *Engine) Stall(h *Handle, d vtime.Duration) error {
	if h.done {
		return fmt.Errorf("engine: stall of completed kernel %q", h.spec.Name)
	}
	if d < 0 {
		return fmt.Errorf("engine: negative stall duration %d", d)
	}
	now := e.Clock.Now()
	e.advanceProgress(now)
	h.pausedUntil = now.Add(d)
	e.Clock.At(h.pausedUntil, func(t vtime.Time) { e.recompute(t) })
	e.recompute(now)
	return nil
}

// advanceProgress integrates every running kernel's progress and metrics
// from lastUpdate to now using the last computed rates.
func (e *Engine) advanceProgress(now vtime.Time) {
	dt := now.Sub(e.lastUpdate).Seconds()
	e.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, h := range e.running {
		if h.rate <= 0 {
			continue
		}
		blocks := h.rate * dt
		if rem := h.numBlocks - h.blocksDone; blocks > rem {
			blocks = rem
		}
		h.blocksDone += blocks
		ovh := 1.0
		if h.opts.Mode == SlateSched {
			ovh = 1 + e.Dev.InjectedInstrOverhead
		}
		h.metrics.FLOPs += blocks * h.spec.FLOPsPerBlock
		h.metrics.L2Bytes += blocks * h.spec.L2BytesPerBlock
		h.metrics.DRAMBytes += blocks * h.dramPerBlk
		h.metrics.Instr += blocks * h.spec.InstrPerBlock * ovh
		h.metrics.Busy += vtime.FromSeconds(dt)
		h.metrics.StallMemThrottle += h.memThrottle * dt
		h.metrics.SMSecondsIntegral += h.smAlloc * dt
		if h.opts.Mode == SlateSched && h.spec.NumBlocks() > 0 {
			h.metrics.Atomics = int64(h.blocksDone) / int64(h.opts.TaskSize)
		}
	}
}

// recompute advances progress to now, retires finished kernels, reallocates
// SMs, recomputes rates, and reschedules completion events.
func (e *Engine) recompute(now vtime.Time) {
	e.advanceProgress(now)

	// Retire finished kernels.
	var still []*Handle
	var finished []*Handle
	for _, h := range e.running {
		if h.numBlocks-h.blocksDone < 1e-6 {
			h.blocksDone = h.numBlocks
			h.done = true
			h.metrics.Completed = now
			if h.metrics.Busy > 0 {
				h.metrics.StallMemThrottle /= h.metrics.Busy.Seconds()
			}
			if h.completion != nil {
				e.Clock.Cancel(h.completion)
				h.completion = nil
			}
			if h.checkpoint != nil {
				e.Clock.Cancel(h.checkpoint)
				h.checkpoint = nil
			}
			finished = append(finished, h)
		} else {
			still = append(still, h)
		}
	}
	e.running = still

	// Completion callbacks may launch or resize kernels, re-entering
	// recompute; run them after state is consistent.
	for _, h := range finished {
		for _, fn := range h.onComplete {
			fn(now)
		}
	}
	if len(finished) > 0 {
		// Callbacks may have changed the running set and already
		// recomputed; recompute once more to be safe (idempotent at fixed
		// time).
		e.advanceProgress(e.Clock.Now())
	}

	e.computeRates(e.Clock.Now())

	// Reschedule completion events and tail-reallocation checkpoints.
	for _, h := range e.running {
		// Drop references to events that already fired: the clock recycles
		// their allocations once the callback returns, so cancelling a
		// stale pointer later could hit an unrelated reissued event.
		if h.completion != nil && !h.completion.Pending() {
			h.completion = nil
		}
		if h.checkpoint != nil && !h.checkpoint.Pending() {
			h.checkpoint = nil
		}
		// Skip the cancel-and-reschedule when nothing about this kernel's
		// schedule changed — the common case when an unrelated co-runner
		// event triggered the recompute. Rate is a step function of
		// blocksDone for a fixed co-runner set, and under a constant rate
		// the pending completion's absolute time (now + remaining/rate) is
		// invariant, so a bitwise-unchanged (rate, allocation) pair means
		// the pending events still describe the correct schedule.
		if !e.RescheduleEveryEvent && h.completion != nil &&
			h.rate == h.schedRate && h.smAlloc == h.schedAlloc {
			continue
		}
		if h.completion != nil {
			e.Clock.Cancel(h.completion)
			h.completion = nil
		}
		if h.checkpoint != nil {
			e.Clock.Cancel(h.checkpoint)
			h.checkpoint = nil
		}
		h.schedRate, h.schedAlloc = h.rate, h.smAlloc
		if h.rate <= 0 {
			continue
		}
		rem := h.numBlocks - h.blocksDone
		dt := vtime.FromSeconds(rem / h.rate)
		if dt < 1 {
			dt = 1
		}
		h.completion = e.Clock.After(dt, func(t vtime.Time) { e.recompute(t) })

		// Parallelism drops when the kernel enters its final wave, and
		// leftover allocation shifts as a hardware kernel drains; refine
		// with checkpoints. The wave boundary is exact; the geometric
		// halving refines continuous leftover reallocation for co-runners.
		var ck vtime.Duration
		if boundary := e.lastWaveBoundary(h, h.smAlloc); h.blocksDone < boundary {
			ck = vtime.FromSeconds((boundary - h.blocksDone) / h.rate)
		} else if len(e.running) > 1 {
			ck = vtime.FromSeconds(rem / (2 * h.rate))
		}
		if ck >= 100 && ck < dt {
			h.checkpoint = e.Clock.After(ck, func(t vtime.Time) { e.recompute(t) })
		}
	}
}

// allocate returns each running kernel's SM allocation in SM units.
// Slate instances own their designated ranges. Hardware instances share the
// remaining SMs under the leftover policy: in priority order, each takes the
// SMs needed to hold its remaining blocks, the next takes what is left —
// which for full-size kernels means the later kernel only runs during the
// earlier one's tail (§V-A2).
func (e *Engine) allocate(now vtime.Time) []float64 {
	e.scratch.alloc = f64Scratch(e.scratch.alloc, len(e.running))
	alloc := e.scratch.alloc
	free := float64(e.Dev.NumSMs)

	// Slate partitions first (disjoint by construction of the scheduler).
	for i, h := range e.running {
		if h.opts.Mode != SlateSched {
			continue
		}
		if now < h.pausedUntil {
			alloc[i] = 0
			continue
		}
		span := float64(h.opts.SMHigh - h.opts.SMLow + 1)
		alloc[i] = span
		free -= span
	}
	if free < 0 {
		free = 0
	}

	// Hardware kernels in priority order take what their remaining blocks
	// can fill, from what is free.
	order := e.scratch.order[:0]
	for i, h := range e.running {
		if h.opts.Mode == HardwareSched {
			order = append(order, i)
		}
	}
	e.scratch.order = order
	e.sorter.order, e.sorter.running = order, e.running
	sort.Sort(&e.sorter)
	for _, i := range order {
		h := e.running[i]
		if free <= 0 || now < h.pausedUntil {
			alloc[i] = 0
			continue
		}
		// The hardware scheduler distributes blocks breadth-first, so a
		// kernel's SM footprint is one SM per in-flight block until it runs
		// out of blocks — even a small kernel touches every SM. That is why
		// the leftover policy almost never coruns these workloads (§V-A2):
		// SMs only free up when the in-flight wave shrinks below the SM
		// count at the very end of a kernel.
		needSMs := e.activeWorkers(h, free)
		if needSMs > free {
			needSMs = free
		}
		alloc[i] = needSMs
		free -= needSMs
	}
	return alloc
}

// computeRates runs the coupled rate/L2-share fixpoint and stores each
// running kernel's snapshot. Pass 1 computes each kernel's model lookups and
// unconstrained demand; pass 2 arbitrates the shared bus; pass 3 updates
// the L2 shares for the next iteration.
func (e *Engine) computeRates(now vtime.Time) {
	n := len(e.running)
	if n == 0 {
		return
	}
	alloc := e.allocate(now)

	// Initial equal L2 shares.
	e.scratch.shares = f64Scratch(e.scratch.shares, n)
	shares := e.scratch.shares
	for i := range shares {
		shares[i] = 1.0 / float64(n)
	}

	if cap(e.scratch.snaps) < n {
		e.scratch.snaps = make([]rateSnap, n)
	}
	snaps := e.scratch.snaps[:n]
	e.scratch.demands = f64Scratch(e.scratch.demands, n)
	e.scratch.uncon = f64Scratch(e.scratch.uncon, n)
	e.scratch.accessRates = f64Scratch(e.scratch.accessRates, n)
	demands, uncon, accessRates := e.scratch.demands, e.scratch.uncon, e.scratch.accessRates

	l2Size := float64(e.Dev.L2.SizeBytes)
	// Bus interference applies only among kernels that actually hold SMs.
	sharers := 0
	for i := range e.running {
		if alloc[i] > 0 {
			sharers++
		}
	}

	for iter := 0; iter < 4; iter++ {
		// Pass 1: per-kernel unconstrained demands. Each kernel reads only
		// its own shares/alloc slot and writes only its own output slots.
		for i, h := range e.running {
			demands[i], uncon[i], accessRates[i] = 0, 0, 0
			s := alloc[i]
			if s <= 0 {
				snaps[i] = rateSnap{}
				continue
			}
			hit := e.Model.HitRate(h.spec, h.opts.Mode, h.opts.TaskSize, shares[i]*l2Size)
			runB := e.Model.MeanRunBytes(h.spec, h.opts.Mode, h.opts.TaskSize)
			runEff := e.Dev.DRAM.RunEfficiency(runB)
			dramPB := h.spec.L2BytesPerBlock * (1 - hit)

			active := e.activeWorkers(h, s)
			// Active workers spread across the allocated SMs; once fewer
			// workers than SMs remain, each active block has an SM to
			// itself and the kernel effectively occupies only `occ` SMs.
			occ := s
			if active < occ {
				occ = active
			}
			if occ <= 0 {
				snaps[i] = rateSnap{}
				continue
			}
			warpsPerSM := active * h.warpsPerBlock / occ
			mlp := h.spec.MemMLP
			if mlp <= 0 {
				mlp = 1
			}
			cUtil := e.Dev.SM.ComputeUtil(warpsPerSM)
			mUtil := e.Dev.SM.MemUtil(warpsPerSM * mlp)

			ovh := 1.0
			if h.opts.Mode == SlateSched {
				ovh = 1 + e.Dev.InjectedInstrOverhead
			}
			ops := h.spec.OpsPerBlock
			if ops <= 0 {
				ops = h.spec.FLOPsPerBlock
			}
			computeRate := math.Inf(1)
			if ops > 0 {
				rc := occ * e.Dev.SM.PeakFLOPS() * h.spec.ComputeEff * cUtil
				computeRate = rc / (ops * ovh)
			}
			l2Rate := math.Inf(1)
			if h.spec.L2BytesPerBlock > 0 {
				rl2 := e.Dev.DRAM.L2Ceiling(int(math.Ceil(occ)), e.Dev.NumSMs)
				l2Rate = rl2 / h.spec.L2BytesPerBlock
			}
			// Service floor: dispatch (hardware) or queue atomic (Slate),
			// amortized over active workers, plus the block latency floor.
			floor := e.Dev.BlockLatencySeconds
			var serialRate = math.Inf(1)
			if h.opts.Mode == HardwareSched {
				floor += e.Dev.BlockDispatchSeconds
			} else {
				floor += e.Dev.AtomicSerialSeconds / float64(h.opts.TaskSize)
				// Global queue serialization: one atomic at a time.
				serialRate = float64(h.opts.TaskSize) / e.Dev.AtomicSerialSeconds
			}
			latRate := active / floor

			r := math.Min(computeRate, math.Min(l2Rate, math.Min(latRate, serialRate)))
			uncon[i] = r
			snaps[i] = rateSnap{hit: hit, dramPB: dramPB}
			if dramPB > 0 {
				memEff := h.spec.MemEff
				if memEff <= 0 {
					memEff = 1
				}
				dramCeil := e.Dev.DRAM.StreamCeiling(int(math.Ceil(occ))) * runEff * mUtil * memEff
				if sharers > 1 {
					// Sharing the bus with another kernel's stream breaks
					// row locality for both (memsys.CorunEfficiency).
					dramCeil *= e.Dev.DRAM.CorunEff()
				}
				demands[i] = math.Min(r*dramPB, dramCeil)
			}
		}

		// Pass 2: arbitrate the shared bus and finalize rates.
		grants := e.Dev.DRAM.Arbitrate(demands)
		totalAccess := 0.0
		for i, h := range e.running {
			if alloc[i] <= 0 {
				continue
			}
			r := uncon[i]
			throttle := 0.0
			if snaps[i].dramPB > 0 {
				dramRate := grants[i] / snaps[i].dramPB
				if dramRate < r {
					throttle = 1 - dramRate/r
					r = dramRate
				}
			}
			snaps[i].rate = r
			snaps[i].throttle = throttle
			accessRates[i] = r * h.spec.L2BytesPerBlock
			totalAccess += accessRates[i]
		}

		// Pass 3: update L2 shares by access demand for the next iteration.
		if totalAccess > 0 {
			for i := range shares {
				shares[i] = accessRates[i] / totalAccess
			}
		}
	}

	for i, h := range e.running {
		h.rate = snaps[i].rate
		h.dramPerBlk = snaps[i].dramPB
		h.hitRate = snaps[i].hit
		h.memThrottle = snaps[i].throttle
		h.smAlloc = alloc[i]
	}
}

// activeWorkers returns how many block slots are actually processing work —
// the tail/imbalance model. Workers drain the queue in waves of `capacity`
// scheduling units (tasks under Slate, blocks under hardware) that progress
// in lockstep, so parallelism is capacity through the full waves and drops
// to the final wave's size for the tail. A kernel whose task count is below
// capacity runs a single underpopulated wave for its entire execution —
// Fig. 5's BlackScholes load-imbalance case.
func (e *Engine) activeWorkers(h *Handle, smAlloc float64) float64 {
	resident := float64(e.Dev.ResidentBlocks(h.spec.Shape()))
	capacity := math.Floor(smAlloc * resident)
	if capacity < 1 {
		capacity = 1
	}
	unit := 1.0
	if h.opts.Mode == SlateSched {
		unit = float64(h.opts.TaskSize)
	}
	unitsTotal := math.Ceil(h.numBlocks / unit)
	fullWaves := math.Floor(unitsTotal / capacity)
	lastWave := unitsTotal - fullWaves*capacity
	if lastWave == 0 {
		lastWave = capacity
		fullWaves--
	}
	boundary := fullWaves * capacity * unit // blocks completed when the last wave begins
	if h.blocksDone >= boundary {
		return lastWave
	}
	return capacity
}

// lastWaveBoundary returns the blocksDone value at which the kernel enters
// its final, possibly underpopulated wave (see activeWorkers).
func (e *Engine) lastWaveBoundary(h *Handle, smAlloc float64) float64 {
	resident := float64(e.Dev.ResidentBlocks(h.spec.Shape()))
	capacity := math.Floor(smAlloc * resident)
	if capacity < 1 {
		capacity = 1
	}
	unit := 1.0
	if h.opts.Mode == SlateSched {
		unit = float64(h.opts.TaskSize)
	}
	unitsTotal := math.Ceil(h.numBlocks / unit)
	fullWaves := math.Floor(unitsTotal / capacity)
	if unitsTotal-fullWaves*capacity == 0 {
		fullWaves--
	}
	if fullWaves < 0 {
		fullWaves = 0
	}
	return fullWaves * capacity * unit
}
