package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fleet"
	"slate/internal/ipc"
	"slate/internal/kern"
	"slate/workloads"
)

const (
	fleetMembers  = 3
	fleetClients  = 2
	singlesPerSes = 8
	batchItems    = 32
	taskSize      = 10
	opTimeout     = 30 * time.Second
)

// fleetSessions drives the durable control plane: a three-member fleet with
// real fsync and two closed-loop clients, each repeating one session cycle.
func fleetSessions() *workload {
	return &workload{
		name:         "fleet-sessions",
		why:          "durable 3-member fleet, 2 closed-loop clients: open, 8 single launches, one 32-item batch, sync, close; the fleet, client, ipc, nvrtc and journal path dominates",
		measure:      measureFleet,
		modelKernels: daemonKernels,
		loop:         3,
		unsteady: "on a 2-vCPU VM three sets of ten seeds spread 11%, 77% and 28% in sessions/s: " +
			"the session cycle follows the host's CPU and fsync speed, which shifted up to 2x between minutes",
	}
}

// corunExec drives the executor: two closed-loop clients of one volatile
// daemon co-run the real SGEMM and Black-Scholes kernel bodies.
func corunExec() *workload {
	return &workload{
		name:         "corun-exec",
		why:          "volatile daemon with an nproc executor budget, 2 closed-loop clients co-running real SGEMM and Black-Scholes bodies: kernel execution dominates",
		measure:      measureCorun,
		modelKernels: daemonKernels,
		loop:         3,
		unsteady: "on a 2-vCPU VM its round time spread 14-51% across five seeds " +
			"(fleet-sessions 6-18% in the same windows): two CPU-bound kernels on both vCPUs " +
			"follow the host's speed changes most closely",
	}
}

// daemonKernels are the model kernels of the daemon workloads' real bodies.
func daemonKernels() []*kern.Spec { return []*kern.Spec{workloads.MM(), workloads.BS()} }

// srcKernel is one client's seeded source kernel.
type srcKernel struct {
	name, source string
	grid, block  kern.Dim3
}

// fleetKernels derives each client's kernel from the seed: its name, the
// constant it stores, and its launch geometry.
func fleetKernels(seed int64) []srcKernel {
	rng := rand.New(rand.NewSource(seed))
	out := make([]srcKernel, fleetClients)
	for c := range out {
		name := fmt.Sprintf("pb_s%d_c%d", uint64(seed), c)
		out[c] = srcKernel{
			name: name,
			source: fmt.Sprintf("__global__ void %s(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = %d.0f; }",
				name, 1+rng.Intn(1000)),
			grid:  kern.D1(2 + rng.Intn(7)),
			block: kern.D1(32 * (1 + rng.Intn(4))),
		}
	}
	return out
}

// fleetRig is one started fleet and its state directory.
type fleetRig struct {
	sup *fleet.Supervisor
	dir string
}

// startFleet brings a durable fleet up and profiles every kernel on every
// member (the executor's first-run profiling launch), so the measured
// window sees warm members.
func startFleet(e *env, ks []srcKernel, acked map[string]int) (*fleetRig, error) {
	dir, err := os.MkdirTemp(e.dir, "fleet")
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{sup: fleet.New(fleet.Config{RoundRobin: true}), dir: dir}
	for i := 0; i < fleetMembers; i++ {
		name := fmt.Sprintf("gpu%d", i)
		state := filepath.Join(dir, name)
		err := os.Mkdir(state, 0o755)
		var m *fleet.Member
		if err == nil {
			m, err = rig.sup.AddMember(fleet.MemberSpec{Name: name, Durability: &daemon.Durability{Dir: state}})
		}
		if err != nil {
			rig.stop()
			return nil, err
		}
		for _, k := range ks {
			if err := profileOn(e, m, k); err != nil {
				rig.stop()
				return nil, fmt.Errorf("profile %s on %s: %w", k.name, name, err)
			}
			acked[k.name]++
		}
	}
	return rig, nil
}

func profileOn(e *env, m *fleet.Member, k srcKernel) error {
	nc, err := m.Dial()()
	if err != nil {
		return err
	}
	c, err := client.New(nc, "perfbench-profile", client.WithTimeout(opTimeout))
	if err != nil {
		return err
	}
	_, degraded, err := c.LaunchSourceDegraded(k.source, k.name, k.grid, k.block, taskSize)
	if err == nil && degraded {
		err = errors.New("launch degraded to the vanilla path")
	}
	e.led.record(err)
	if err != nil {
		c.Close()
		return err
	}
	e.acked.Add(1)
	if err := c.Synchronize(); err != nil {
		c.Close()
		return err
	}
	return c.Close()
}

// stop drains every member, closes the journals and removes the state.
func (r *fleetRig) stop() {
	_ = r.sup.DrainAll(10 * time.Second) // teardown: a slow drain is not a measured failure
	for _, m := range r.sup.Members() {
		_ = m.Srv().CloseDurability()
	}
	os.RemoveAll(r.dir)
}

// runs sums the fleet-wide executions of one kernel.
func (r *fleetRig) runs(kernel string) int {
	n := 0
	for _, m := range r.sup.Members() {
		n += m.Srv().Exec.Runs("src:" + kernel)
	}
	return n
}

// setUps is how many times a daemon workload sets up per run; the reported
// set-up figure is their median, and the last set-up is the one measured.
const setUps = 9

func measureFleet(e *env, d time.Duration) (*phase, error) {
	ks := fleetKernels(e.seed)
	p := &phase{}
	var rig *fleetRig
	var acked map[string]int
	for i := 0; i < setUps; i++ {
		if rig != nil {
			for _, k := range ks {
				e.runs.Add(int64(rig.runs(k.name)))
			}
			rig.stop()
		}
		acked = map[string]int{}
		t0 := time.Now()
		var err error
		if rig, err = startFleet(e, ks, acked); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
	}
	defer rig.stop()

	cycles, launches, batches := newSamples(time.Second), newSamples(time.Microsecond), newSamples(time.Microsecond)
	var mu sync.Mutex
	w := openWindow()
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(k srcKernel) {
			defer wg.Done()
			for time.Since(w.start) < d {
				t0 := time.Now()
				n := sessionCycle(e, rig.sup, k, launches, batches)
				mu.Lock()
				acked[k.name] += n
				mu.Unlock()
				cycles.add(time.Since(t0))
			}
		}(ks[c])
	}
	wg.Wait()
	w.close(p)
	p.units = cycles.values()

	for _, k := range ks {
		runs := rig.runs(k.name)
		e.runs.Add(int64(runs))
		var err error
		if runs != acked[k.name] {
			err = fmt.Errorf("exactly-once: kernel %s ran %d times for %d acked launches", k.name, runs, acked[k.name])
		}
		e.led.record(err)
	}
	p.lines = append(p.lines,
		fmt.Sprintf("sessions_per_s %.1f", float64(len(p.units))/p.elapsed.Seconds()),
		pctLine("launch", "us", launches.values()),
		pctLine("batch", "us", batches.values()))
	return p, nil
}

// sessionCycle is one client session: open, single launches, one batch,
// synchronize, close. Every call is one ledger operation (each batch item
// too); it returns how many launches the fleet acked.
func sessionCycle(e *env, sup *fleet.Supervisor, k srcKernel, launches, batches *samples) (acked int) {
	g := e.tr.newGroup()
	root := e.tr.begin("session", g, handle{})
	defer e.tr.end(root)

	h := e.tr.begin("fleet.OpenSession", 0, root)
	s, err := sup.OpenSession("perfbench", client.WithTimeout(opTimeout))
	e.tr.end(h)
	e.led.record(err)
	if err != nil {
		e.refused.Add(int64(singlesPerSes + batchItems))
		return 0
	}
	for i := 0; i < singlesPerSes; i++ {
		t0 := time.Now()
		h := e.tr.begin("client.LaunchSource", 0, root)
		_, degraded, err := s.LaunchSourceDegraded(k.source, k.name, k.grid, k.block, taskSize)
		e.tr.end(h)
		launches.add(time.Since(t0))
		if err == nil {
			acked++
			e.acked.Add(1)
			if degraded {
				err = errors.New("launch degraded to the vanilla path")
			}
		} else {
			e.refused.Add(1)
		}
		e.led.record(err)
	}
	items := make([]fleet.BatchLaunch, batchItems)
	for i := range items {
		items[i] = fleet.BatchLaunch{Source: k.source, Kernel: k.name, Grid: k.grid, Block: k.block, TaskSize: taskSize}
	}
	t0 := time.Now()
	h = e.tr.begin("client.LaunchBatch", 0, root)
	acks, err := s.LaunchSourceBatch(items)
	e.tr.end(h)
	batches.add(time.Since(t0))
	if err != nil {
		e.refused.Add(batchItems)
		for range items {
			e.led.record(fmt.Errorf("batch: %w", err))
		}
	} else {
		for i := range items {
			var err error
			switch {
			case i >= len(acks):
				err = fmt.Errorf("batch item %d has no ack", i)
			case acks[i].Code != ipc.CodeOK:
				err = fmt.Errorf("batch item %d refused: %s", i, acks[i].Err)
			case acks[i].Degraded:
				err = fmt.Errorf("batch item %d degraded to the vanilla path", i)
			}
			if i < len(acks) && acks[i].Code == ipc.CodeOK {
				acked++
				e.acked.Add(1)
			} else {
				e.refused.Add(1)
			}
			e.led.record(err)
		}
	}
	h = e.tr.begin("client.Synchronize", 0, root)
	e.led.record(s.Synchronize())
	e.tr.end(h)
	h = e.tr.begin("fleet.Session.Close", 0, root)
	e.led.record(s.Close())
	e.tr.end(h)
	return acked
}

// pctLine formats a p50/p99 report line, marking a percentile without
// enough samples beyond it as unavailable rather than guessing.
func pctLine(name, unit string, xs []float64) string {
	return fmt.Sprintf("%s_p50_%s %s %s_p99_%s %s (n=%d)", name, unit, fmtPct(xs, 0.5), name, unit, fmtPct(xs, 0.99), len(xs))
}

func fmtPct(xs []float64, q float64) string {
	v, err := percentile(xs, q)
	if err != nil {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", v)
}

// The daemon workloads' real problems: sizes are fixed so every seed does
// the same work; the seed draws the input values.
const (
	sgemmN     = 240
	blackN     = 300_000
	checkCells = 4 // outputs spot-checked per kernel
)

// problems builds the seeded SGEMM and Black-Scholes inputs.
func problems(seed int64) (*workloads.SGEMM, *workloads.BlackScholes) {
	rng := rand.New(rand.NewSource(seed))
	mm := workloads.NewSGEMM(sgemmN)
	for i := range mm.A {
		mm.A[i] = float32(rng.Float64()*2 - 1)
		mm.B[i] = float32(rng.Float64()*2 - 1)
	}
	bs := workloads.NewBlackScholes(blackN)
	for i := range bs.S {
		bs.S[i] = float32(5 + 25*rng.Float64())
		bs.X[i] = float32(1 + 99*rng.Float64())
		bs.T[i] = float32(0.25 + 9.75*rng.Float64())
	}
	return mm, bs
}

// kernelCheck spot-checks one launch's outputs: arm poisons seeded cells
// before the launch, verify compares them with the scalar reference after.
type kernelCheck struct {
	arm    func() []int
	verify func(cells []int) error
}

func mmCheck(mm *workloads.SGEMM, seed int64) *kernelCheck {
	n := mm.N
	rng := rand.New(rand.NewSource(seed ^ 0x4d4d))
	return &kernelCheck{
		arm: func() []int {
			cells := make([]int, checkCells)
			for i := range cells {
				cells[i] = rng.Intn(n * n)
				mm.C[cells[i]] = float32(math.NaN())
			}
			return cells
		},
		verify: func(cells []int) error {
			for _, c := range cells {
				if got, want := mm.C[c], mm.ReferenceCell(c/n, c%n); got != want {
					return fmt.Errorf("SGEMM C[%d][%d] = %v, reference %v", c/n, c%n, got, want)
				}
			}
			return nil
		},
	}
}

func bsCheck(bs *workloads.BlackScholes, seed int64) *kernelCheck {
	rng := rand.New(rand.NewSource(seed ^ 0x4253))
	return &kernelCheck{
		arm: func() []int {
			cells := make([]int, checkCells)
			for i := range cells {
				cells[i] = rng.Intn(len(bs.S))
				bs.Call[cells[i]], bs.Put[cells[i]] = float32(math.NaN()), float32(math.NaN())
			}
			return cells
		},
		verify: func(cells []int) error {
			for _, i := range cells {
				if c, p := bs.PriceOne(i); bs.Call[i] != c || bs.Put[i] != p {
					return fmt.Errorf("Black-Scholes option %d = (%v, %v), reference (%v, %v)", i, bs.Call[i], bs.Put[i], c, p)
				}
			}
			return nil
		},
	}
}

// launchChecked is one closed-loop step: poison the checked outputs, launch,
// synchronize, verify. It returns the launch-to-sync time.
func launchChecked(e *env, c *client.Client, spec *kern.Spec, chk *kernelCheck) (time.Duration, bool) {
	cells := chk.arm()
	g := e.tr.newGroup()
	root := e.tr.begin("kernel."+spec.Name, g, handle{})
	t0 := time.Now()
	h := e.tr.begin("client.Launch", 0, root)
	err := c.Launch(spec, taskSize)
	e.tr.end(h)
	e.led.record(err)
	if err != nil {
		e.refused.Add(1)
		e.tr.end(root)
		return 0, false
	}
	e.acked.Add(1)
	h = e.tr.begin("client.Synchronize", 0, root)
	err = c.Synchronize()
	e.tr.end(h)
	dt := time.Since(t0)
	e.tr.end(root)
	e.led.record(err)
	if err != nil {
		return dt, true
	}
	e.led.record(chk.verify(cells))
	return dt, true
}

// side is one co-running client with its kernel and output check.
type side struct {
	c    *client.Client
	spec *kern.Spec
	chk  *kernelCheck
}

// corunRig is one started volatile daemon with its two clients: the SGEMM
// side first, the Black-Scholes side second.
type corunRig struct {
	srv   *daemon.Server
	sides [2]side
}

// startCorun starts a volatile daemon with an nproc executor budget and
// runs each kernel once solo: the executor's first-run profiling launch.
func startCorun(e *env, specs [2]*kern.Spec, checks [2]*kernelCheck) (*corunRig, error) {
	srv, dial := daemon.NewLocal(runtime.NumCPU())
	rig := &corunRig{srv: srv}
	for i, name := range []string{"perfbench-mm", "perfbench-bs"} {
		c, err := client.Local(srv, dial, name, client.WithTimeout(opTimeout))
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.sides[i] = side{c: c, spec: specs[i], chk: checks[i]}
	}
	for _, sd := range rig.sides {
		if _, ok := launchChecked(e, sd.c, sd.spec, sd.chk); !ok {
			rig.stop()
			return nil, fmt.Errorf("profiling launch of %s refused", sd.spec.Name)
		}
	}
	return rig, nil
}

// corunInputs builds the seeded problems' kernels and output checks.
func corunInputs(seed int64) ([2]*kern.Spec, [2]*kernelCheck) {
	mm, bs := problems(seed)
	return [2]*kern.Spec{mm.Kernel(), bs.Kernel()}, [2]*kernelCheck{mmCheck(mm, seed), bsCheck(bs, seed)}
}

// round starts both sides' launches together, as the paper's co-running
// pairs start, and waits until both synchronized. It returns each side's
// launch-to-sync time, 0 for a refused launch.
func (r *corunRig) round(e *env) [2]time.Duration {
	var dts [2]time.Duration
	var wg sync.WaitGroup
	for i, sd := range r.sides {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dts[i], _ = launchChecked(e, sd.c, sd.spec, sd.chk)
		}()
	}
	wg.Wait()
	return dts
}

// runs is how many kernels the daemon executed.
func (r *corunRig) runs() int {
	return r.srv.Exec.Runs(r.sides[0].spec.Name) + r.srv.Exec.Runs(r.sides[1].spec.Name)
}

func (r *corunRig) stop() {
	for _, sd := range r.sides {
		if sd.c != nil {
			_ = sd.c.Close() // teardown: the daemon is drained next
		}
	}
	_ = r.srv.Drain(10 * time.Second) // teardown: a slow drain is not a measured failure
}

func measureCorun(e *env, d time.Duration) (*phase, error) {
	specs, checks := corunInputs(e.seed)
	p := &phase{}
	var rig *corunRig
	for i := 0; i < setUps; i++ {
		if rig != nil {
			rig.stop()
			e.runs.Add(int64(rig.runs()))
		}
		t0 := time.Now()
		var err error
		if rig, err = startCorun(e, specs, checks); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
	}
	defer rig.stop()
	acked0 := e.acked.Load()

	rounds := newSamples(time.Second)
	lat := [2]*samples{newSamples(time.Millisecond), newSamples(time.Millisecond)}
	w := openWindow()
	for time.Since(w.start) < d {
		t0 := time.Now()
		for i, dt := range rig.round(e) {
			if dt > 0 {
				lat[i].add(dt)
			}
		}
		rounds.add(time.Since(t0))
	}
	w.close(p)
	p.units = rounds.values()

	// Exactly-once: the daemon executed each acked launch once (the two
	// profiling launches included).
	runs := rig.runs()
	e.runs.Add(int64(runs))
	var err error
	if want := int(e.acked.Load()-acked0) + 2; runs != want {
		err = fmt.Errorf("exactly-once: daemon ran %d kernels for %d acked launches", runs, want)
	}
	e.led.record(err)
	p.lines = append(p.lines,
		fmt.Sprintf("kernels_per_s %.1f", float64(2*len(p.units))/p.elapsed.Seconds()),
		fmt.Sprintf("mm_p50_ms %.3f (n=%d)", median(lat[0].values()), len(lat[0].values())),
		fmt.Sprintf("bs_p50_ms %.3f (n=%d)", median(lat[1].values()), len(lat[1].values())))
	return p, nil
}
