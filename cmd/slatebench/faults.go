// The faults experiment: a seeded chaos driver for the client/daemon
// runtime. It runs a deterministic script of hostile sessions — spurious
// OOMs, transient compiler failures, connection resets and torn frames,
// panicking kernel bodies, clients that vanish without closing — against one
// live daemon, twice at each of seeds N and N+1, and verifies the
// fault-tolerance contract: the daemon never crashes, every session-owned
// resource (shared buffers, orphaned kernel specs) is reclaimed, and both
// runs of a seed produce the identical failure sequence and outcomes.
package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/kern"
)

// faultsSessions is how many hostile client sessions one chaos run opens.
const faultsSessions = 12

// chaosResult is everything a run produced that must be reproducible.
type chaosResult struct {
	faults    []fault.Event // every fired fault, by site, then hit
	outcomes  []string      // one line per client-visible operation outcome
	registry  int           // live buffers after all sessions ended
	specs     int           // orphaned spec-table entries after all sessions ended
	sessions  int           // live sessions at the end (0 = clean drain)
	fallbacks int           // vanilla-path degradations recorded by the executor
}

// chaosScript runs the deterministic hostile-session script once.
func chaosScript(seed int64) *chaosResult {
	inj := fault.New(fault.Config{
		Seed:              seed,
		ReadDelayProb:     0.05,
		WriteResetProb:    0.04,
		WriteTruncateProb: 0.03,
		AllocFailProb:     0.15,
		CompileFailProb:   0.35,
	})
	srv, dial := daemon.NewLocal(4)
	srv.Registry.AllocHook = inj.AllocHook()
	srv.Compiler.FailHook = inj.CompileHook()

	rng := rand.New(rand.NewSource(seed))
	res := &chaosResult{}
	note := func(sess int, format string, args ...any) {
		res.outcomes = append(res.outcomes, fmt.Sprintf("s%02d %s", sess, fmt.Sprintf(format, args...)))
	}

	for s := 0; s < faultsSessions; s++ {
		nc := inj.WrapConn(dial())
		cli, err := client.New(nc, fmt.Sprintf("chaos-%d", s),
			client.WithShared(srv.Registry, srv.Specs),
			client.WithTimeout(5*time.Second))
		if err != nil {
			note(s, "connect: %v", err)
			nc.Close()
			continue
		}

		var bufs []*client.Buffer
		for b := 0; b < 1+rng.Intn(3); b++ {
			buf, err := cli.Malloc(int64(256 << rng.Intn(4)))
			if err != nil {
				note(s, "malloc: %v", err)
				continue
			}
			bufs = append(bufs, buf)
			if err := cli.MemcpyH2D(buf, make([]byte, buf.Size())); err != nil {
				note(s, "h2d: %v", err)
			}
		}

		switch scenario := rng.Float64(); {
		case scenario < 0.25:
			// A buggy user kernel: its first block panics.
			spec := &kern.Spec{
				Name: fmt.Sprintf("chaos-panic-%d", s),
				Grid: kern.D1(8), BlockDim: kern.D1(32),
				FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
				ComputeEff: 0.5,
				Exec: func(glob int) {
					if glob == 0 {
						panic("chaos: injected kernel panic")
					}
				},
			}
			if err := cli.Launch(spec, 2); err != nil {
				note(s, "launch(panic): %v", err)
			}
		case scenario < 0.5:
			spec := &kern.Spec{
				Name: "chaos-healthy",
				Grid: kern.D1(16), BlockDim: kern.D1(32),
				FLOPsPerBlock: 10, InstrPerBlock: 10, L2BytesPerBlock: 10,
				ComputeEff: 0.5,
				Exec:       func(int) {},
			}
			if err := cli.Launch(spec, 2); err != nil {
				note(s, "launch(healthy): %v", err)
			}
		default:
			// A unique source kernel per session defeats the compile cache,
			// so the compiler fault site keeps rolling; compile failures
			// degrade to the vanilla path instead of failing the launch.
			name := fmt.Sprintf("k%d", s)
			_, degraded, err := cli.LaunchSourceDegraded(kernelSource(name), name, kern.D1(8), kern.D1(32), 4)
			switch {
			case err != nil:
				note(s, "launchSource: %v", err)
			case degraded:
				note(s, "launchSource: degraded to vanilla path")
			}
		}

		if err := cli.Synchronize(); err != nil {
			note(s, "sync: %v", err)
		}

		if rng.Float64() < 0.3 {
			// The client crashes: no frees, no close — teardown must
			// reclaim everything it owned.
			note(s, "abrupt disconnect with %d live buffers", len(bufs))
			nc.Close()
			continue
		}
		for _, b := range bufs {
			if err := cli.Free(b); err != nil {
				note(s, "free: %v", err)
			}
		}
		if err := cli.Close(); err != nil {
			note(s, "close: %v", err)
		}
	}

	// Every session's teardown (including abrupt ones) must drain.
	waitSessions(srv, 10*time.Second)
	res.sessions = srv.Sessions()
	res.registry = srv.Registry.Len()
	res.specs = srv.Specs.Len()
	// The client's reader goroutine rolls the read-delay site while this
	// script rolls the others, so each site's own sequence is
	// seed-determined but how the sites interleave is not.
	res.faults = inj.Events()
	sort.Slice(res.faults, func(a, b int) bool {
		fa, fb := res.faults[a], res.faults[b]
		return fa.Site < fb.Site || fa.Site == fb.Site && fa.N < fb.N
	})
	for _, d := range srv.Exec.Decisions {
		if strings.HasPrefix(d, "fallback ") {
			res.fallbacks++
		}
	}
	return res
}

// runFaults executes the chaos script twice at each seed of the pair and
// renders the verdict. The double run compares the injector's full fault
// trace, every client-visible outcome and every check.
func runFaults(seed int64) (string, error) {
	return doubleRunSeeds(seed, func(s int64) (string, string, error) {
		r := chaosScript(s)
		var b strings.Builder
		fmt.Fprintf(&b, "Chaos run: seed=%d sessions=%d\n\n", s, faultsSessions)
		fmt.Fprintf(&b, "injected faults: %d\n", len(r.faults))
		for _, e := range r.faults {
			fmt.Fprintf(&b, "  %s\n", e)
		}
		fmt.Fprintf(&b, "client-visible outcomes: %d\n", len(r.outcomes))
		for _, o := range r.outcomes {
			fmt.Fprintf(&b, "  %s\n", o)
		}
		fmt.Fprintf(&b, "vanilla-path degradations: %d\n\n", r.fallbacks)
		v := verdicts{b: &b}
		v.check("daemon survived (sessions drained)", r.sessions == 0, "%d live", r.sessions)
		v.check("buffer registry drained", r.registry == 0, "%d buffers", r.registry)
		v.check("spec table drained", r.specs == 0, "%d specs", r.specs)
		return b.String(), b.String(), v.err()
	})
}
