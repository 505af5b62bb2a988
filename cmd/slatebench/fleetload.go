// The fleetload benchmark: gray-failure tolerance at 100k-session scale.
// It drives two legs, each a three-member fleet serving `-fleet-sessions`
// lightweight concurrent sessions:
//
//   - baseline: every member healthy — the latency and goodput reference;
//   - degraded: one member is made gray (fault.Degrade: seeded per-op
//     stalls plus flaky drops — it still answers every ping), the
//     latency-accrual SlowDetector must eject it from placement, the whole
//     session storm rides the two healthy members under a daemon-wide
//     admission cap with deliberate overload bursts (backpressure sheds
//     plus deterministic pre-expired deadline sheds), and after recovery
//     the member must be re-admitted — all visible as structured events.
//
// Invariants, audited in-run (any violation is an error, not a statistic):
// zero starved sessions (every session's work eventually completes — the
// aging override guarantees shedding cannot starve), exactly-once
// accounting (fleet-wide executions equal successful launches exactly; a
// shed launch never ran), ejection and re-admission both observed, and no
// leaked goroutines after teardown. The rendered summary contains only
// deterministic counts and booleans, so the whole benchmark run twice must
// render byte-identically; wall-clock figures (tail latencies, goodput) go
// to BENCH_fleet.json, where the fail-if-slower gate compares against the
// previous record — skipped with a NOTICE on single-core runners.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"slate/internal/client"
	"slate/internal/fault"
	"slate/internal/fleet"
	"slate/internal/kern"
	"slate/internal/leakcheck"
)

const (
	// flDegraded is the member made gray in the degraded leg.
	flDegraded = "gpu2"
	// flBurstTarget takes the overload burst (a healthy member: the burst
	// exercises the shed, not the gray link).
	flBurstTarget = "gpu0"
	// flMaxPending is each daemon's accepted-unfinished launch cap.
	flMaxPending = 128
	// flBurstClients is the concurrent burst width — far past flMaxPending,
	// so backpressure sheds are effectively guaranteed.
	flBurstClients = 256
	// flExpiredProbes is how many deterministic pre-expired launches the
	// degraded leg sends: a 1ns launch deadline has always passed by
	// admission time, so exactly this many EXPIRED sheds are observed.
	flExpiredProbes = 64
	// flSessionBound is how long one session may retry shed launches before
	// it counts as starved.
	flSessionBound = 60 * time.Second
	// flTickBound bounds the detection/readmission tick loops.
	flTickBound = 400
)

// flRecord is the schema of BENCH_fleet.json.
type flRecord struct {
	Experiment string `json:"experiment"`
	Sessions   int    `json:"sessions"`
	Members    int    `json:"members"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Baseline leg: all members healthy.
	BaselineP50us float64 `json:"baseline_p50_us"`
	BaselineP99us float64 `json:"baseline_p99_us"`
	BaselineSec   float64 `json:"baseline_sec"`
	GoodputBase   float64 `json:"goodput_base_sessions_per_sec"`
	// Degraded leg: one gray member ejected, overload bursts shed.
	DegradedP50us   float64 `json:"degraded_healthy_p50_us"`
	DegradedP99us   float64 `json:"degraded_healthy_p99_us"`
	DegradedSec     float64 `json:"degraded_sec"`
	GoodputDegraded float64 `json:"goodput_degraded_sessions_per_sec"`
	// P99Ratio is degraded-leg healthy-member tail over baseline tail —
	// the ejection payoff: a gray third of the fleet must not blow up the
	// healthy members' tail.
	P99Ratio float64 `json:"p99_ratio"`
	// Identical is the byte-comparison of the two full renders.
	Identical bool `json:"identical"`
}

// flP99Bound caps the degraded/baseline healthy-member p99 ratio on
// multi-core runners. Generous: the degraded leg carries the same session
// count on one fewer member plus the burst, so some inflation is physics;
// a gray member leaking into placement shows up as far more.
const flP99Bound = 8.0

// flLegStats is one leg's outcome: deterministic counts for the render,
// wall-clock figures for the JSON record.
type flLegStats struct {
	completed    int // sessions whose work fully completed
	launches     int // successful (acked and synced) launches, total
	starved      int // sessions that never completed within flSessionBound
	expiredShed  int // deterministic pre-expired admission sheds observed
	bpSheds      int // backpressure sheds observed (timing-dependent count)
	runs         int // fleet-wide executions of the leg's kernel
	ejected      bool
	readmitted   bool
	wallSec      float64
	latencies    []time.Duration // healthy-member session op latencies
	leakFree     bool
	slowActions  map[string]bool // slow-event actions observed (eject/readmit)
	degradeSeen  map[string]bool // degrade-event actions observed (on/off)
	routedToGray int             // sessions placed on the degraded member (must be 0)
}

// runFleetLoad drives the benchmark twice, demands byte-identical renders,
// writes BENCH_fleet.json, and applies the gates.
func runFleetLoad(seed int64, sessions int, benchOut string) error {
	if sessions <= 0 {
		sessions = 100_000
	}

	var prior *flRecord
	if data, err := os.ReadFile(benchOut); err == nil {
		var p flRecord
		if json.Unmarshal(data, &p) == nil && p.Experiment != "" {
			prior = &p
		}
	}

	var rec flRecord
	first := true
	out, err := doubleRun(func() (string, string, error) {
		out, r, err := fleetLoadOnce(seed, sessions)
		if first {
			rec, first = r, false
		}
		return out, out, err
	})
	fmt.Print(out)
	if err != nil && !errors.Is(err, errNotIdentical) {
		return err
	}
	rec.Identical = err == nil

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(benchOut, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("fleetload: baseline %.1fs (p99 %.0fµs), degraded %.1fs (healthy p99 %.0fµs, ratio %.2fx), goodput %.0f → %.0f sessions/s, identical=%v\n",
		rec.BaselineSec, rec.BaselineP99us, rec.DegradedSec, rec.DegradedP99us, rec.P99Ratio,
		rec.GoodputBase, rec.GoodputDegraded, rec.Identical)
	fmt.Printf("wrote %s\n", benchOut)

	if !rec.Identical {
		return fmt.Errorf("%w — determinism contract broken", errNotIdentical)
	}
	eff := effectiveParallelism()
	if eff < 2 {
		fmt.Printf("fleetload: NOTICE — effective parallelism %d < 2, latency/goodput gates skipped (single-core runner)\n", eff)
		return nil
	}
	if rec.P99Ratio > flP99Bound {
		return fmt.Errorf("fleetload: healthy-member p99 blew up %.2fx over baseline (bound %.1fx) — the gray member is leaking into the serving path",
			rec.P99Ratio, flP99Bound)
	}
	if prior != nil && prior.GOMAXPROCS >= 2 && prior.NumCPU >= 2 &&
		prior.Sessions == rec.Sessions && prior.GoodputDegraded > 0 {
		floor := prior.GoodputDegraded * regressTolerance
		if rec.GoodputDegraded < floor {
			return fmt.Errorf("fleetload: degraded-leg goodput %.0f sessions/s fell below %.0f (%.0f%% of recorded %.0f) — fleet throughput regressed",
				rec.GoodputDegraded, floor, regressTolerance*100, prior.GoodputDegraded)
		}
	}
	return nil
}

// regressTolerance is how much of the previously recorded goodput the gate
// demands: wall-clock benchmarks are noisy, so a run only fails the
// fail-if-slower gate when it loses more than a third of the record on
// comparable hardware.
const regressTolerance = 0.67

// fleetLoadOnce runs both legs once and renders the deterministic summary.
func fleetLoadOnce(seed int64, sessions int) (string, flRecord, error) {
	rec := flRecord{
		Experiment: "fleetload",
		Sessions:   sessions,
		Members:    fleetMembers,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet load: members=%d sessions=%d burst=%d expired_probes=%d max_pending=%d seed=%d\n",
		fleetMembers, sessions, flBurstClients, flExpiredProbes, flMaxPending, seed)

	base, err := fleetLoadLeg(seed, sessions, false)
	if err != nil {
		return b.String(), rec, fmt.Errorf("baseline leg: %w", err)
	}
	fmt.Fprintf(&b, "baseline: completed=%d launches=%d starved=%d exactly_once=%v leak_free=%v\n",
		base.completed, base.launches, base.starved, base.runs == base.launches, base.leakFree)

	degr, err := fleetLoadLeg(seed, sessions, true)
	if err != nil {
		return b.String(), rec, fmt.Errorf("degraded leg: %w", err)
	}
	fmt.Fprintf(&b, "degraded: completed=%d launches=%d starved=%d exactly_once=%v ejected=%v readmitted=%v expired_shed=%d backpressure_shed=%v routed_to_gray=%d leak_free=%v\n",
		degr.completed, degr.launches, degr.starved, degr.runs == degr.launches,
		degr.ejected, degr.readmitted, degr.expiredShed, degr.bpSheds > 0, degr.routedToGray, degr.leakFree)
	fmt.Fprintf(&b, "events: slow_eject=%v slow_readmit=%v degrade_on=%v degrade_off=%v\n",
		degr.slowActions["eject"], degr.slowActions["readmit"], degr.degradeSeen["on"], degr.degradeSeen["off"])
	b.WriteString("invariants: zero starved sessions, exactly-once accounting, gray member ejected and re-admitted\n")

	rec.BaselineSec, rec.DegradedSec = base.wallSec, degr.wallSec
	rec.BaselineP50us, rec.BaselineP99us = flQuantileUS(base.latencies, 0.5), flQuantileUS(base.latencies, 0.99)
	rec.DegradedP50us, rec.DegradedP99us = flQuantileUS(degr.latencies, 0.5), flQuantileUS(degr.latencies, 0.99)
	if base.wallSec > 0 {
		rec.GoodputBase = float64(base.completed) / base.wallSec
	}
	if degr.wallSec > 0 {
		rec.GoodputDegraded = float64(degr.completed) / degr.wallSec
	}
	if rec.BaselineP99us > 0 {
		rec.P99Ratio = rec.DegradedP99us / rec.BaselineP99us
	}
	return b.String(), rec, nil
}

// flWorkers bounds in-flight session operations: enough to keep every core
// and both healthy members' executors saturated, without 100k simultaneous
// in-flight launches defeating the admission cap's purpose.
func flWorkers() int {
	w := 32 * runtime.NumCPU()
	if w > 128 {
		w = 128
	}
	if w < 8 {
		w = 8
	}
	return w
}

// fleetLoadLeg drives one leg end to end and audits every invariant.
func fleetLoadLeg(seed int64, sessions int, degraded bool) (*flLegStats, error) {
	st := &flLegStats{
		slowActions: map[string]bool{},
		degradeSeen: map[string]bool{},
	}
	gBase := leakcheck.Snapshot()

	var evMu sync.Mutex
	sup, err := newFleet(fleet.Config{
		HeartbeatEvery: 50 * time.Millisecond,
		PingTimeout:    2 * time.Second,
		MinStd:         50 * time.Millisecond,
		RoundRobin:     true,
		PartitionMode:  fault.PartitionReject,
		SlowWindow:     16,
		SlowMinSamples: 4,
		SlowRecover:    3,
		Logf: func(line string) {
			kind, fields, ok := fleet.ParseEvent(line)
			if !ok {
				return
			}
			evMu.Lock()
			if kind == "slow" && fields["member"] == flDegraded {
				st.slowActions[fields["action"]] = true
			}
			if kind == "degrade" && fields["member"] == flDegraded {
				st.degradeSeen[fields["action"]] = true
			}
			evMu.Unlock()
		},
	}, "", nil)
	if err != nil {
		return st, err
	}
	// Daemon-wide overload shed: past the cap, admission refuses with
	// BACKPRESSURE, except for a session already shed past the aging bound.
	// Set before any traffic.
	for _, m := range sup.Members() {
		m.Srv().MaxTotalPending = flMaxPending
	}

	// Prime: enough heartbeat rounds that every member's latency window
	// holds SlowMinSamples real round-trips.
	now := time.Now()
	for i := 0; i < 6; i++ {
		sup.Tick(now)
		now = now.Add(50 * time.Millisecond)
	}

	legTag := "base"
	if degraded {
		legTag = "degr"
	}
	// One kernel per leg: every session launches it, so the compile caches
	// stay warm and fleet-wide executions are countable with one Exec.Runs
	// key.
	kernel := fmt.Sprintf("fl_%s_%d", legTag, seed)
	src := kernelSource(kernel)

	if degraded {
		// Make gpu2 gray: persistent seeded stalls plus flaky drops — it
		// still answers every ping, just slowly and unreliably. The phi
		// detector sees nothing terminal; the SlowDetector must.
		deg := fault.NewDegrade(fault.DegradeConfig{
			Seed: seed, StallProb: 0.9, StallMin: 5 * time.Millisecond,
			StallMax: 20 * time.Millisecond, DropProb: 0.1,
		})
		if err := sup.DegradeMember(flDegraded, deg); err != nil {
			return st, err
		}
		// Drive detection: tick until the latency accrual ejects it.
		for i := 0; i < flTickBound && !st.ejected; i++ {
			sup.Tick(now)
			now = now.Add(50 * time.Millisecond)
			for _, name := range sup.SlowSuspects() {
				if name == flDegraded {
					st.ejected = true
				}
			}
		}
		if !st.ejected {
			return st, fmt.Errorf("gray member %s never ejected after %d heartbeat rounds", flDegraded, flTickBound)
		}
		if m := sup.MemberByName(flDegraded); m.State() != fleet.StateUp {
			return st, fmt.Errorf("gray member went %v — it must stay up (alive, just slow) for this leg", m.State())
		}
	}

	legStart := time.Now()

	// Open every session concurrently (bounded workers): Route skips the
	// ejected gray member, so the whole storm lands on healthy members.
	type sess struct {
		c      *client.Client
		member string
	}
	clients := make([]sess, sessions)
	var openErr error
	var mu sync.Mutex
	flRunWorkers(sessions, func(i int) {
		m, err := sup.Route("")
		if err == nil {
			var c *client.Client
			c, err = dialMember(m, fmt.Sprintf("fl-%s-%d", legTag, i),
				client.WithTimeout(60*time.Second), client.WithLaunchDeadline(30*time.Second))
			clients[i] = sess{c: c, member: m.Name}
		}
		if err != nil {
			mu.Lock()
			if openErr == nil {
				openErr = fmt.Errorf("open session %d: %w", i, err)
			}
			mu.Unlock()
		}
	})
	if openErr != nil {
		return st, openErr
	}
	for _, s := range clients {
		if degraded && s.member == flDegraded {
			st.routedToGray++
		}
	}
	if st.routedToGray > 0 {
		return st, fmt.Errorf("%d sessions routed to the ejected gray member", st.routedToGray)
	}

	if degraded {
		if err := flBurst(sup, seed, src, kernel, st); err != nil {
			return st, err
		}
	}

	// Main wave: every session launches once and syncs, retrying sheds
	// (backpressure at admission, expiry at the queue head) with backoff —
	// the aging override guarantees an aged session is eventually admitted,
	// so a session that still cannot finish within the bound is starved.
	lats := make([]time.Duration, sessions)
	var starved, completed, launches, bpSheds int64
	flRunWorkers(sessions, func(i int) {
		c := clients[i].c
		start := time.Now()
		ok, sheds := flLaunchWithRetry(c, src, kernel, flSessionBound)
		mu.Lock()
		bpSheds += sheds
		if ok {
			completed++
			launches++
			lats[i] = time.Since(start)
		} else {
			starved++
		}
		mu.Unlock()
	})
	st.completed += int(completed)
	st.starved += int(starved)
	st.launches += int(launches)
	st.bpSheds += int(bpSheds)
	for _, d := range lats {
		if d > 0 {
			st.latencies = append(st.latencies, d)
		}
	}
	if st.starved > 0 {
		return st, fmt.Errorf("%d sessions starved (no completion within %v)", st.starved, flSessionBound)
	}

	// Close the storm before the audit: pending counters must settle.
	flRunWorkers(sessions, func(i int) {
		_ = clients[i].c.Close()
	})
	st.wallSec = time.Since(legStart).Seconds()

	if degraded {
		// Recovery: turn the gray failure off and drive re-admission —
		// SlowRecover consecutive fast probes, observed via heartbeats.
		if err := sup.RecoverMember(flDegraded); err != nil {
			return st, err
		}
		for i := 0; i < flTickBound && !st.readmitted; i++ {
			sup.Tick(now)
			now = now.Add(50 * time.Millisecond)
			st.readmitted = true
			for _, name := range sup.SlowSuspects() {
				if name == flDegraded {
					st.readmitted = false
				}
			}
		}
		if !st.readmitted {
			return st, fmt.Errorf("recovered member %s never re-admitted after %d heartbeat rounds", flDegraded, flTickBound)
		}
		// And it serves again: place a session directly on it and complete
		// real work over the now-clean link.
		c, err := dialMember(sup.MemberByName(flDegraded), "fl-verify", client.WithTimeout(60*time.Second))
		if err != nil {
			return st, fmt.Errorf("post-recovery session: %w", err)
		}
		if _, _, err := c.LaunchSourceDegraded(src, kernel, kern.D1(4), kern.D1(32), 4); err != nil {
			return st, fmt.Errorf("post-recovery launch: %w", err)
		}
		if err := c.Synchronize(); err != nil {
			return st, fmt.Errorf("post-recovery sync: %w", err)
		}
		if err := c.Close(); err != nil {
			return st, err
		}
		st.launches++
		st.completed++
	}

	// Exactly-once accounting: fleet-wide executions of the leg's kernel
	// must equal the successful launches exactly — a shed launch never ran,
	// a completed one ran once, nothing ran twice.
	for _, m := range sup.Members() {
		st.runs += m.Srv().Exec.Runs("src:" + kernel)
	}
	if st.runs != st.launches {
		return st, fmt.Errorf("exactly-once violated: %d executions for %d successful launches", st.runs, st.launches)
	}

	if err := sup.DrainAll(30 * time.Second); err != nil {
		return st, fmt.Errorf("drain: %w", err)
	}
	// Teardown leak audit: 100k sessions' worth of conn/session goroutines
	// must all unwind.
	if err := leakcheck.Wait(gBase, 15*time.Second); err != nil {
		return st, err
	}
	st.leakFree = true

	if degraded {
		if !st.slowActions["eject"] || !st.slowActions["readmit"] {
			return st, fmt.Errorf("slow eject/readmit events missing (saw %v)", st.slowActions)
		}
		if !st.degradeSeen["on"] || !st.degradeSeen["off"] {
			return st, fmt.Errorf("degrade on/off events missing (saw %v)", st.degradeSeen)
		}
	}
	return st, nil
}

// flBurst drives the overload bursts against one healthy member: first the
// deterministic pre-expired probes (a 1ns launch deadline has always passed
// by admission — exactly flExpiredProbes EXPIRED sheds), then a concurrent
// burst far past the admission cap, every client retrying its shed launch
// until admitted (the aging override makes that bounded).
func flBurst(sup *fleet.Supervisor, seed int64, src, kernel string, st *flLegStats) error {
	m := sup.MemberByName(flBurstTarget)
	if m == nil {
		return fmt.Errorf("burst target %s missing", flBurstTarget)
	}

	// Deterministic deadline sheds.
	expired := 0
	for i := 0; i < flExpiredProbes; i++ {
		c, err := dialMember(m, fmt.Sprintf("fl-exp-%d", i),
			client.WithTimeout(60*time.Second), client.WithLaunchDeadline(time.Nanosecond))
		if err != nil {
			return err
		}
		_, _, lerr := c.LaunchSourceDegraded(src, kernel, kern.D1(4), kern.D1(32), 4)
		if errors.Is(lerr, client.ErrExpired) {
			expired++
		} else {
			return fmt.Errorf("pre-expired probe %d: got %v, want ErrExpired", i, lerr)
		}
		if err := c.Close(); err != nil {
			return err
		}
	}
	st.expiredShed = expired

	// Concurrent overload: flBurstClients × one launch against a cap of
	// flMaxPending, all genuinely concurrent (no worker-pool bound — the
	// burst must overwhelm the cap, not trickle under it). Every launch
	// must eventually complete (zero starved).
	var mu sync.Mutex
	var sheds int64
	var firstErr error
	var wg sync.WaitGroup
	burstOne := func(i int) {
		defer wg.Done()
		c, err := dialMember(m, fmt.Sprintf("fl-burst-%d", i), client.WithTimeout(60*time.Second))
		if err == nil {
			ok, s := flLaunchWithRetry(c, src, kernel, flSessionBound)
			if !ok {
				err = errors.New("burst session starved")
			}
			mu.Lock()
			sheds += s
			mu.Unlock()
			if cerr := c.Close(); err == nil && cerr != nil {
				err = cerr
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("burst client %d: %w", i, err)
			}
			mu.Unlock()
		}
	}
	wg.Add(flBurstClients)
	for i := 0; i < flBurstClients; i++ {
		go burstOne(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if sheds == 0 {
		return fmt.Errorf("burst of %d against cap %d produced zero backpressure sheds — the overload shed is not engaging", flBurstClients, flMaxPending)
	}
	st.bpSheds += int(sheds)
	st.launches += flBurstClients
	st.completed += flBurstClients
	return nil
}

// flLaunchWithRetry launches the leg's kernel once and syncs, retrying
// admission backpressure and deadline expiry (both mean: the launch did NOT
// run) with a small backoff, bounded by deadline. Returns success and how
// many backpressure sheds were absorbed.
func flLaunchWithRetry(c *client.Client, src, kernel string, bound time.Duration) (bool, int64) {
	dead := time.Now().Add(bound)
	var sheds int64
	for time.Now().Before(dead) {
		_, _, err := c.LaunchSourceDegraded(src, kernel, kern.D1(4), kern.D1(32), 4)
		if err != nil {
			if errors.Is(err, client.ErrBackpressure) {
				sheds++
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if errors.Is(err, client.ErrExpired) {
				time.Sleep(time.Millisecond)
				continue
			}
			return false, sheds
		}
		serr := c.Synchronize()
		if serr == nil {
			return true, sheds
		}
		if errors.Is(serr, client.ErrExpired) {
			// Shed at the queue head: accepted but never executed —
			// relaunching cannot double-run it.
			continue
		}
		return false, sheds
	}
	return false, sheds
}

// flRunWorkers fans f(0..n-1) across a bounded worker pool.
func flRunWorkers(n int, f func(i int)) {
	workers := flWorkers()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// flQuantileUS is the q-th nearest-rank quantile of ds, in microseconds:
// the smallest sample with at least q·n samples at or below it.
func flQuantileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Microsecond)
}
