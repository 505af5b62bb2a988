package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slate/harness"
	"slate/internal/cache"
	"slate/internal/client"
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/fleet"
	"slate/internal/inject"
	"slate/internal/ipc"
	"slate/internal/journal"
	"slate/internal/kern"
	"slate/internal/nvrtc"
	"slate/internal/profile"
	"slate/internal/run"
	"slate/internal/sched"
	"slate/internal/traces"
	"slate/internal/vtime"
	"slate/workloads"
)

// layerMetrics collects the traced run's per-layer figures by name.
type layerMetrics map[string]float64

// Probe sizes: each latency probe takes enough samples that its reported
// percentile has at least minBeyond samples beyond it.
const (
	probeSessions = 1100 // fleet sessions: p99 of open, launch, sync, close
	probeBatches  = 40   // batched submits: p50
	probeFrames   = 2000 // ipc round trips
	probeInjects  = 200
	probeCompiles = 60 // distinct sources compiled cold
	probeAppends  = 200
	probeGroups   = 40 // 32-record group commits
	probeSoloRuns = 21 // daemon solo launches per kernel
)

// runProbes drives every layer once more through its public API, each call
// in a span, and fills lm. The inputs come from the workload: its model
// kernels, its loop length and its seed.
func runProbes(wl *workload, e *env, traced *phase, lm layerMetrics) error {
	if err := probeModel(e, wl.modelKernels(), lm); err != nil {
		return fmt.Errorf("model probe: %w", err)
	}
	if err := probeSim(e, wl.loop, lm); err != nil {
		return fmt.Errorf("sim probe: %w", err)
	}
	if err := probeWarmRerun(e, traced, lm); err != nil {
		return fmt.Errorf("warm-rerun probe: %w", err)
	}
	if err := probeFleet(e, lm); err != nil {
		return fmt.Errorf("fleet probe: %w", err)
	}
	if err := probeIPC(e, lm); err != nil {
		return fmt.Errorf("ipc probe: %w", err)
	}
	if err := probeCompile(e, lm); err != nil {
		return fmt.Errorf("compile probe: %w", err)
	}
	if err := probeJournal(e, lm); err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	if err := probeDaemon(e, lm); err != nil {
		return fmt.Errorf("daemon probe: %w", err)
	}
	lm["daemon.exec_runs"] = float64(e.runs.Load())
	lm["daemon.acked_launches"] = float64(e.acked.Load())
	lm["daemon.refused"] = float64(e.refused.Load())
	return nil
}

// timed runs f in a span named name of group g and adds its duration to s;
// its outcome is one ledger operation.
func timed(e *env, s *samples, name string, g int64, f func() error) error {
	h := e.tr.begin(name, g, handle{})
	t0 := time.Now()
	err := f()
	s.add(time.Since(t0))
	e.tr.end(h)
	e.led.record(err)
	return err
}

// setMedians stores the median of each named sample set in lm.
func setMedians(lm layerMetrics, sets map[string]*samples) error {
	for name, s := range sets {
		v, err := percentile(s.values(), 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lm[name] = v
	}
	return nil
}

// mrcCapacities are the L2 capacities the cache probe samples, the same
// geometric points the trace model uses.
var mrcCapacities = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 3 << 20 / 2, 3 << 20, 6 << 20}

// probeModel times trace assembly and the one-pass MRC on each kernel's
// pattern in both block orders, then cold TraceModel builds of the same
// kernels under both schedulers.
func probeModel(e *env, ks []*kern.Spec, lm layerMetrics) error {
	dev := device.TitanXp()
	g := e.tr.newGroup()
	var asm, mrc time.Duration
	var accesses int
	for _, k := range ks {
		workers := dev.MaxWorkers(k.Shape(), dev.NumSMs)
		workers = max(1, min(workers, k.Pattern.NumBlocks()))
		for _, order := range []traces.Order{traces.HardwareOrder, traces.SlateOrder} {
			cfg := traces.AssembleConfig{Order: order, Workers: workers, TaskSize: taskSize, Chunk: 8, Seed: e.seed, MaxAccesses: 1_000_000}
			h := e.tr.begin("traces.Assemble", g, handle{})
			t0 := time.Now()
			tr := traces.Assemble(k.Pattern, cfg)
			asm += time.Since(t0)
			e.tr.end(h)
			accesses += len(tr)

			h = e.tr.begin("cache.ReuseDistanceMRC", g, handle{})
			t0 = time.Now()
			miss := cache.ReuseDistanceMRC(dev.L2, tr, mrcCapacities)
			mrc += time.Since(t0)
			e.tr.end(h)
			e.led.record(checkMRC(miss))
		}
	}
	lm["traces.assemble_s"] = asm.Seconds()
	lm["traces.accesses"] = float64(accesses)
	lm["cache.mrc_s"] = mrc.Seconds()
	lm["cache.mrc_accesses"] = float64(accesses)

	model := engine.NewTraceModel(dev)
	model.Seed = e.seed
	var build time.Duration
	entries := 0
	for _, k := range ks {
		for _, mode := range []engine.Mode{engine.HardwareSched, engine.SlateSched} {
			h := e.tr.begin("engine.MissRatioCurve", g, handle{})
			t0 := time.Now()
			_, miss := model.MissRatioCurve(k, mode, taskSize)
			build += time.Since(t0)
			e.tr.end(h)
			entries++
			e.led.record(checkMRC(miss))
		}
	}
	lm["engine.model_build_s"] = build.Seconds()
	lm["engine.model_entries"] = float64(entries)
	return nil
}

// checkMRC holds a miss-ratio curve to its definition: ratios in [0, 1],
// never rising with capacity.
func checkMRC(miss []float64) error {
	if len(miss) == 0 {
		return errors.New("empty miss-ratio curve")
	}
	for i, m := range miss {
		if m < 0 || m > 1 || (i > 0 && m > miss[i-1]+1e-12) {
			return fmt.Errorf("miss-ratio curve %v is not a non-increasing curve in [0, 1]", miss)
		}
	}
	return nil
}

// probeSim runs the benchmark's own Slate co-run of the heaviest Fig. 7
// pairing — vtime.NewClock → engine.New → sched.New → Submit → Clock.Run —
// with each kernel looped for loop simulated seconds, and times the event
// loop on warm model and profile caches.
func probeSim(e *env, loop float64, lm layerMetrics) error {
	dev := device.TitanXp()
	model := engine.NewTraceModel(dev)
	model.Seed = e.seed
	prof := profile.New(dev, model)
	pair := workloads.Pairs()[harness.New(harness.Config{Seed: e.seed}).HeaviestPairIndex()]
	a, b := pair[0].Kernel, pair[1].Kernel

	solo := func(k *kern.Spec) (float64, error) {
		clk := vtime.NewClock()
		s := sched.New(dev, engine.New(dev, clk, model), prof)
		var sec float64
		if err := s.Submit(k, taskSize, func(_ vtime.Time, m engine.Metrics) { sec = m.Duration().Seconds() }); err != nil {
			return 0, err
		}
		clk.Run(50_000_000)
		return sec, nil
	}
	reps := map[*kern.Spec]int{}
	for _, k := range []*kern.Spec{a, b} {
		sec, err := solo(k)
		if err != nil {
			return err
		}
		if sec <= 0 {
			return fmt.Errorf("solo %s did not complete", k.Name)
		}
		reps[k] = run.Reps30s(sec, loop)
	}

	corun := func() (uint64, time.Duration, int, error) {
		clk := vtime.NewClock()
		s := sched.New(dev, engine.New(dev, clk, model), prof)
		done := 0
		var subErr error
		// Each completion launches the kernel's next repetition after the
		// host launch latency, as the harness's application loop does.
		var submit func(k *kern.Spec, left int)
		submit = func(k *kern.Spec, left int) {
			err := s.Submit(k, taskSize, func(vtime.Time, engine.Metrics) {
				done++
				if left > 1 {
					clk.After(vtime.FromSeconds(dev.KernelLaunchSeconds), func(vtime.Time) { submit(k, left-1) })
				}
			})
			if err != nil && subErr == nil {
				subErr = err
			}
		}
		for _, k := range []*kern.Spec{a, b} {
			submit(k, reps[k])
		}
		t0 := time.Now()
		clk.Run(500_000_000)
		return clk.Fired(), time.Since(t0), done, subErr
	}
	// The first co-run warms the profiles; the second is timed.
	if _, _, _, err := corun(); err != nil {
		return err
	}
	h := e.tr.begin("vtime.Clock.Run", e.tr.newGroup(), handle{})
	events, wall, done, err := corun()
	e.tr.end(h)
	if err != nil {
		return err
	}
	if want := reps[a] + reps[b]; done != want || events == 0 {
		e.led.record(fmt.Errorf("co-run completed %d of %d launches in %d events", done, want, events))
	} else {
		e.led.record(nil)
	}
	lm["vtime.events"] = float64(events)
	lm["engine.host_ns_per_event"] = float64(wall.Nanoseconds()) / float64(max(events, 1))
	return nil
}

// probeWarmRerun times the workload's own unit on its warm harness (repro
// workloads) or, for the daemon workloads, the heaviest Fig. 7 cell on a
// harness its own cold run warmed.
func probeWarmRerun(e *env, traced *phase, lm layerMetrics) error {
	rerun := traced.warm
	if rerun == nil {
		h := harness.New(harness.Config{LoopSeconds: 3, Parallel: 1, SimWorkers: 1, Seed: e.seed})
		cell := h.HeaviestPairIndex()
		cold, err := h.SimBenchCell(cell)
		if err != nil {
			return err
		}
		rerun = func() error {
			hd := e.tr.begin("harness.warm_rerun", e.tr.newGroup(), handle{})
			warm, err := h.SimBenchCell(cell)
			e.tr.end(hd)
			if err != nil {
				return err
			}
			var mismatch error
			if warm != cold {
				mismatch = errors.New("warm cell render differs from the cold one")
			}
			e.led.record(mismatch)
			return nil
		}
	}
	t0 := time.Now()
	if err := rerun(); err != nil {
		return err
	}
	lm["harness.warm_rerun_s"] = time.Since(t0).Seconds()
	return nil
}

// probeFleet opens, uses and closes sessions one at a time on a fresh
// durable fleet, timing each fleet and client call in isolation.
func probeFleet(e *env, lm layerMetrics) error {
	ks := fleetKernels(e.seed)
	rig, err := startFleet(e, ks, map[string]int{})
	if err != nil {
		return err
	}
	defer rig.stop()
	acked := map[string]int{}
	for _, k := range ks {
		acked[k.name] = fleetMembers // the profiling launches
	}
	route, open, launch, sync, closeT, batch := newSamples(time.Microsecond), newSamples(time.Microsecond),
		newSamples(time.Microsecond), newSamples(time.Microsecond), newSamples(time.Microsecond), newSamples(time.Microsecond)
	for i := 0; i < probeSessions; i++ {
		k := ks[i%len(ks)]
		g := e.tr.newGroup()
		if err := timed(e, route, "fleet.Route", g, func() error { _, err := rig.sup.Route(""); return err }); err != nil {
			return err
		}
		var s *fleet.Session
		if err := timed(e, open, "fleet.OpenSession", g, func() (err error) {
			s, err = rig.sup.OpenSession("perfbench-probe", client.WithTimeout(opTimeout))
			return err
		}); err != nil {
			return err
		}
		if err := timed(e, launch, "client.LaunchSource", g, func() error {
			_, degraded, err := s.LaunchSourceDegraded(k.source, k.name, k.grid, k.block, taskSize)
			if err == nil && degraded {
				err = errors.New("launch degraded to the vanilla path")
			}
			return err
		}); err != nil {
			return err
		}
		e.acked.Add(1)
		acked[k.name]++
		if i < probeBatches {
			items := make([]fleet.BatchLaunch, batchItems)
			for j := range items {
				items[j] = fleet.BatchLaunch{Source: k.source, Kernel: k.name, Grid: k.grid, Block: k.block, TaskSize: taskSize}
			}
			if err := timed(e, batch, "client.LaunchBatch", g, func() error {
				acks, err := s.LaunchSourceBatch(items)
				if err == nil && len(acks) != len(items) {
					err = fmt.Errorf("%d acks for %d items", len(acks), len(items))
				}
				for _, a := range acks {
					if err == nil && a.Code != ipc.CodeOK {
						err = fmt.Errorf("batch item refused: %s", a.Err)
					}
				}
				return err
			}); err != nil {
				return err
			}
			e.acked.Add(batchItems)
			acked[k.name] += batchItems
		}
		if err := timed(e, sync, "client.Synchronize", g, s.Synchronize); err != nil {
			return err
		}
		if err := timed(e, closeT, "fleet.Session.Close", g, s.Close); err != nil {
			return err
		}
	}
	for _, k := range ks {
		runs := rig.runs(k.name)
		e.runs.Add(int64(runs))
		if runs != acked[k.name] {
			e.led.record(fmt.Errorf("exactly-once: kernel %s ran %d times for %d acked launches", k.name, runs, acked[k.name]))
		}
	}
	if err := setMedians(lm, map[string]*samples{"fleet.route_us": route, "fleet.close_us": closeT, "client.batch_p50_us": batch}); err != nil {
		return err
	}
	for name, s := range map[string]*samples{"fleet.open": open, "client.launch": launch, "client.sync": sync} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.5}, {"_p99_us", 0.99}} {
			if lm[name+q.suffix], err = percentile(s.values(), q.q); err != nil {
				return fmt.Errorf("%s%s: %w", name, q.suffix, err)
			}
		}
	}
	return nil
}

// probeIPC echoes the fleet workload's launch frame over net.Pipe.
func probeIPC(e *env, lm layerMetrics) error {
	k := fleetKernels(e.seed)[0]
	a, b := net.Pipe()
	cli, srv := ipc.NewConn(a), ipc.NewConn(b)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			req, err := srv.RecvRequest()
			if err != nil {
				return // the client closed its end
			}
			if err := srv.SendReply(&ipc.Reply{Seq: req.Seq}); err != nil {
				return
			}
		}
	}()
	defer func() {
		cli.Close()
		wg.Wait()
		srv.Close()
	}()
	rt := newSamples(time.Microsecond)
	g := e.tr.newGroup()
	for i := 0; i < probeFrames; i++ {
		req := &ipc.Request{Op: ipc.OpLaunchSource, Seq: uint64(i + 1), Source: k.source, Kernel: k.name,
			GridX: k.grid.X, GridY: 1, BlockX: k.block.X, BlockY: 1, TaskSize: taskSize, OpID: uint64(i + 1)}
		if err := timed(e, rt, "ipc.Conn.roundtrip", g, func() error {
			if err := cli.SendRequest(req); err != nil {
				return err
			}
			rep, err := cli.RecvReply()
			if err == nil && rep.Seq != req.Seq {
				err = fmt.Errorf("echo seq %d for request %d", rep.Seq, req.Seq)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return setMedians(lm, map[string]*samples{"ipc.roundtrip_us": rt})
}

// probeCompile times injection and runtime compilation of the fleet
// workload's source: cold compiles of distinct sources, then cache hits.
func probeCompile(e *env, lm layerMetrics) error {
	k := fleetKernels(e.seed)[0]
	g := e.tr.newGroup()
	tf := newSamples(time.Microsecond)
	var transformed string
	for i := 0; i < probeInjects; i++ {
		if err := timed(e, tf, "inject.Transform", g, func() (err error) {
			transformed, err = inject.Transform(k.source, inject.Options{TaskSize: taskSize})
			return err
		}); err != nil {
			return err
		}
	}
	c := nvrtc.New()
	cold, hot := newSamples(time.Microsecond), newSamples(time.Microsecond)
	compile := func(s *samples, src string) error {
		return timed(e, s, "nvrtc.Compile", g, func() error { _, err := c.Compile(src); return err })
	}
	// A distinct comment makes each variant a cache miss the first time.
	variant := func(i int) string { return fmt.Sprintf("// variant %d\n%s", i, transformed) }
	for i := 0; i < probeCompiles; i++ {
		if err := compile(cold, variant(i)); err != nil {
			return err
		}
	}
	for i := 0; i < probeInjects; i++ {
		if err := compile(hot, variant(0)); err != nil {
			return err
		}
	}
	var split error
	if compiles, hits := c.Stats(); compiles != probeCompiles || hits != probeInjects {
		split = fmt.Errorf("nvrtc compiled %d and served %d from cache, want %d and %d", compiles, hits, probeCompiles, probeInjects)
	}
	e.led.record(split)
	return setMedians(lm, map[string]*samples{"inject.transform_us": tf, "nvrtc.compile_us": cold, "nvrtc.cached_us": hot})
}

// probeJournal times single fsynced appends and 32-record group commits of
// launch-accept records, then replays the journal to check every record.
func probeJournal(e *env, lm layerMetrics) error {
	k := fleetKernels(e.seed)[0]
	path := filepath.Join(e.dir, "probe.journal")
	w, err := journal.OpenWriter(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	rec := func(op int) *journal.Record {
		return &journal.Record{Kind: journal.KindLaunchAccept, Sess: 1, OpID: uint64(op), Kernel: k.name, Src: true,
			GridX: k.grid.X, GridY: 1, BlockX: k.block.X, BlockY: 1, TaskSize: taskSize}
	}
	g := e.tr.newGroup()
	single, group := newSamples(time.Microsecond), newSamples(time.Microsecond)
	op := 0
	for i := 0; i < probeAppends; i++ {
		op++
		r := rec(op)
		if err := timed(e, single, "journal.Append", g, func() error { return w.Append(r) }); err != nil {
			w.Close()
			return err
		}
	}
	for i := 0; i < probeGroups; i++ {
		recs := make([]*journal.Record, batchItems)
		for j := range recs {
			op++
			recs[j] = rec(op)
		}
		if err := timed(e, group, "journal.AppendBatch", g, func() error { return w.AppendBatch(recs) }); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	n := 0
	if _, err := journal.Replay(path, func(r *journal.Record) error {
		n++
		if r.OpID != uint64(n) {
			return fmt.Errorf("record %d has op %d", n, r.OpID)
		}
		return nil
	}); err != nil {
		return err
	}
	var rerr error
	if n != op {
		rerr = fmt.Errorf("journal replayed %d of %d records", n, op)
	}
	e.led.record(rerr)
	return setMedians(lm, map[string]*samples{"journal.append_us": single, "journal.append_batch_us": group})
}

// probeDaemon times the corun workload's kernels solo, then co-running, on
// a fresh volatile daemon.
func probeDaemon(e *env, lm layerMetrics) error {
	specs, checks := corunInputs(e.seed)
	rig, err := startCorun(e, specs, checks)
	if err != nil {
		return err
	}
	defer func() {
		rig.stop()
		e.runs.Add(int64(rig.runs()))
	}()
	solo := [2]*samples{newSamples(time.Millisecond), newSamples(time.Millisecond)}
	corun := [2]*samples{newSamples(time.Millisecond), newSamples(time.Millisecond)}
	for r := 0; r < probeSoloRuns; r++ {
		for i, sd := range rig.sides {
			if dt, ok := launchChecked(e, sd.c, sd.spec, sd.chk); ok {
				solo[i].add(dt)
			}
		}
	}
	for r := 0; r < probeSoloRuns; r++ {
		for i, dt := range rig.round(e) {
			if dt > 0 {
				corun[i].add(dt)
			}
		}
	}
	var slowdown float64
	for i := range rig.sides {
		s, c := median(solo[i].values()), median(corun[i].values())
		if s == 0 || c == 0 {
			return fmt.Errorf("%s never completed solo or co-running", rig.sides[i].spec.Name)
		}
		slowdown += c / s / 2
	}
	lm["daemon.solo_mm_ms"], lm["daemon.solo_bs_ms"] = median(solo[0].values()), median(solo[1].values())
	lm["daemon.corun_slowdown"] = slowdown
	return nil
}
