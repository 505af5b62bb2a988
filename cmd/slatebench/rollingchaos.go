// The rollingchaos experiment: zero-downtime validation for planned live
// migration and rolling restarts. For every injected fault — none (the
// clean path), a daemon death at each journal crash site armed to fire at a
// migration-time append, and a network partition of the first victim — and
// two consecutive seeds, it rolls a full three-member durable fleet,
// restarting every member in sequence while fleet sessions keep launching
// through the migration windows, and asserts the planned-restart contract:
//
//   - exactly-once: every launch any session ever acked executes exactly
//     once across every daemon incarnation the leg created — completed
//     launches never re-run after a handoff, interrupted ones settle through
//     the resume replay, and the crash-window fallback (fence-adopt onto the
//     same destination) resolves double-durable sessions to a single copy;
//   - zero lost completions: no session ever resumes degraded — every
//     re-home recovers the full durable image;
//   - no starved session: every session survives the whole fleet cycle,
//     completes fresh work afterwards, and closes cleanly; DrainAll
//     terminates;
//   - clean generations: every member comes back as generation 1, up, and
//     a wedged or crashed source is recovered by fence-adopt with the same
//     invariants (the leg's verdict does not depend on the fault landing
//     cooperatively);
//   - determinism: the whole matrix, run twice in-process with the same
//     seed, renders byte-identically, and a fenced victim's tombstoned
//     journal digests identically on consecutive replays.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/fleet"
)

// rcFaults lists the injected faults: the clean path, a source death at
// each journal crash site (gated to fire only at migration-time appends),
// and a partition of the first restarted member.
var rcFaults = append(append([]string{"none"}, journalSites...), "partition")

const rcPreLaunches = 2

// runRollingChaos drives the matrix twice and demands byte-identical output.
func runRollingChaos(seed int64) (string, error) {
	return doubleRun(func() (string, string, error) {
		out, err := matrix{
			title:  "Rolling-chaos matrix (migrate, restart, inject, verify — full fleet, one member at a time)",
			header: []string{"fault", "seed", "fired", "fallback"},
			keys:   2,
			footer: "all rolling restarts upheld: exactly-once, zero lost completions, no starved session",
		}.render(seedMatrix(seed, rcFaults, func(s int64, site string) cell {
			fired, fallback, err := rollingChaosLeg(s, site)
			return cell{cols: []any{site, s, fired, fallback}, err: err}
		}))
		return out, out, err
	})
}

// rollingChaosLeg runs one cell: build the fleet, place one session per
// member, keep two of them launching continuously, roll the whole fleet
// with the fault armed against the first victim, then audit. It reports
// whether the armed crash landed (crash sites only) and whether the first
// victim was recovered by fence-adopt.
func rollingChaosLeg(seed int64, site string) (fired, fallback bool, err error) {
	base, err := os.MkdirTemp("", "rollingchaos")
	if err != nil {
		return false, false, err
	}
	defer os.RemoveAll(base)

	// The first member restarted (gpu0) is the fault's victim. Crash sites
	// arm against its journal behind a gate the driver flips just before the
	// roll, so the crash fires at a migration-time append — the handoff and
	// tombstone records this experiment exists to test — not during the
	// scripted warm-up workload.
	isCrashSite := site != "none" && site != "partition"
	var crasher *fault.Crasher
	var gate atomic.Bool
	sup, err := newFleet(failoverConfig, base, func(i int, d *daemon.Durability) {
		if i != 0 || !isCrashSite {
			return
		}
		crasher = fault.NewCrasher(site, 0)
		hook := crasher.Hook()
		d.Crash = func(s string) error {
			if !gate.Load() {
				return nil
			}
			return hook(s)
		}
		d.CompactEvery = 4
		if site == fault.SiteCheckpointMid {
			// Every append compacts, so the first gated append walks
			// straight into the checkpoint crash site.
			d.CompactEvery = 1
		}
	})
	if err != nil {
		return false, false, err
	}
	t0 := time.Unix(200_000, 0)
	sup.Tick(t0) // prime every detector with a healthy beat

	// One fleet session per member, placed round-robin: session i opens on
	// gpu<i>. Session 0 rides the victim and stays scripted (idle through
	// gpu0's own migration, so the armed crash deterministically lands on
	// the handoff, not a racing workload append); sessions 1 and 2 pump
	// launches continuously through every migration window.
	sessions := make([]*fleet.Session, fleetMembers)
	for i := range sessions {
		s, err := sup.OpenSession(fmt.Sprintf("rc-sess-%d", i), client.WithTimeout(5*time.Second))
		if err != nil {
			return fired, fallback, fmt.Errorf("open session %d: %w", i, err)
		}
		sessions[i] = s
	}
	var launched []string // every kernel name some session acked, audited below
	for i, s := range sessions {
		for j := 0; j < rcPreLaunches; j++ {
			name := kernelName("rc", site, seed, fmt.Sprintf("s%d_pre", i), j)
			if err := launchNamed(s.LaunchSourceDegraded, name); err != nil {
				return fired, fallback, fmt.Errorf("pre launch %s: %v", name, err)
			}
			launched = append(launched, name)
		}
		if err := s.Synchronize(); err != nil {
			return fired, fallback, fmt.Errorf("pre sync session %d: %v", i, err)
		}
	}

	// Every daemon incarnation this leg will ever have: the three originals
	// now, the three restarted generations after the roll. Execution counts
	// survive on the instance that ran them, fenced or not, so summing over
	// all incarnations audits exactly-once without a blind spot.
	incarnations := make([]*daemon.Server, 0, 2*fleetMembers)
	for _, m := range sup.Members() {
		incarnations = append(incarnations, m.Srv())
	}
	victimDir := sup.MemberByName("gpu0").StateDir()

	// Sustained load: sessions 1 and 2 launch+sync in a loop until the roll
	// completes. Any wrapper error is a leg failure — the whole point is
	// that a planned restart is invisible to clients.
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		pumpMu   sync.Mutex
		pumpErrs []error
	)
	// done records a launch a session completed, or the error that stopped it.
	done := func(name string, err error) {
		pumpMu.Lock()
		defer pumpMu.Unlock()
		if err != nil {
			pumpErrs = append(pumpErrs, err)
		} else {
			launched = append(launched, name)
		}
	}
	for p := 1; p < fleetMembers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s := sessions[p]
			for i := 0; !stop.Load(); i++ {
				name := kernelName("rc", site, seed, fmt.Sprintf("p%d", p), i)
				if err := launchNamed(s.LaunchSourceDegraded, name); err != nil {
					done(name, fmt.Errorf("pump %d launch %s: %w", p, name, err))
					return
				}
				if err := s.Synchronize(); err != nil {
					done(name, fmt.Errorf("pump %d sync %s: %w", p, name, err))
					return
				}
				done(name, nil)
			}
		}(p)
	}

	if site == "partition" {
		// Sever the victim's transports mid-load: its drain force-close is
		// moot, its clients must re-home blind, and the health gate can only
		// pass after BeforeGate heals the link.
		if err := sup.CutMember("gpu0"); err != nil {
			return fired, fallback, err
		}
	}
	gate.Store(true)
	mid := 0
	rerr := sup.RollingRestart(fleet.RollingRestartOptions{
		Budget: 60 * time.Millisecond,
		BeforeGate: func(m *fleet.Member) {
			if site == "partition" && m.Name == "gpu0" {
				_ = sup.HealMember("gpu0")
			}
		},
		AfterMember: func(m *fleet.Member) {
			// The victim-riding session completes work after every single
			// member swap, before the next one begins.
			name := kernelName("rc", site, seed, "s0_mid", mid)
			mid++
			if err := launchNamed(sessions[0].LaunchSourceDegraded, name); err != nil {
				done(name, fmt.Errorf("mid-roll launch after %s: %w", m.Name, err))
				return
			}
			if err := sessions[0].Synchronize(); err != nil {
				done(name, fmt.Errorf("mid-roll sync after %s: %w", m.Name, err))
				return
			}
			done(name, nil)
		},
	})
	stop.Store(true)
	wg.Wait()
	if rerr != nil {
		return fired, fallback, fmt.Errorf("rolling restart: %w", rerr)
	}
	if len(pumpErrs) > 0 {
		return fired, fallback, fmt.Errorf("a session observed the restart: %v", pumpErrs[0])
	}

	// The fault landed the way the leg intended, and the recovery mode
	// matches: crash legs fall back to fence-adopt, clean and partition legs
	// migrate cooperatively.
	victimOrig := incarnations[0]
	fallback = victimOrig.Crashed()
	if isCrashSite {
		if !crasher.Fired() {
			return fired, fallback, errors.New("armed crash site never fired")
		}
		fired = true
		if !fallback {
			return fired, fallback, errors.New("crashed source was not fenced")
		}
	} else if fallback {
		return fired, fallback, errors.New("clean migration fell back to fence-adopt")
	}

	// Clean generations: every member rolled exactly once and is placeable.
	for _, m := range sup.Members() {
		if m.State() != fleet.StateUp {
			return fired, fallback, fmt.Errorf("%s state=%v after the roll, want up", m.Name, m.State())
		}
		if m.Gen() != 1 {
			return fired, fallback, fmt.Errorf("%s gen=%d after the roll, want 1", m.Name, m.Gen())
		}
		incarnations = append(incarnations, m.Srv())
	}

	// Zero lost completions and no starved session: every session kept its
	// durable identity through every re-home, completes fresh work, closes.
	for i, s := range sessions {
		if s.Degraded() {
			return fired, fallback, fmt.Errorf("session %d resumed degraded — durable state lost in a planned restart", i)
		}
		name := kernelName("rc", site, seed, fmt.Sprintf("s%d_post", i), 0)
		if err := launchNamed(s.LaunchSourceDegraded, name); err != nil {
			return fired, fallback, fmt.Errorf("post launch session %d: %v", i, err)
		}
		launched = append(launched, name)
		if err := s.Synchronize(); err != nil {
			return fired, fallback, fmt.Errorf("post sync session %d: %v", i, err)
		}
		if err := s.Close(); err != nil {
			return fired, fallback, fmt.Errorf("close session %d: %v", i, err)
		}
	}

	// Exactly-once across every incarnation: each acked launch ran exactly
	// once, fleet-wide, for the leg's whole lifetime. Handoffs moved the
	// dedup windows, so completed launches never re-ran on a destination;
	// interrupted ones settled through the resume replay; the crash-window
	// fallback kept double-durable sessions single-homed.
	for _, name := range launched {
		runs := 0
		for _, srv := range incarnations {
			runs += srv.Exec.Runs("src:" + name)
		}
		if runs != 1 {
			return fired, fallback, fmt.Errorf("%s: ran %d times across %d incarnations, want exactly 1", name, runs, len(incarnations))
		}
	}

	// On fallback legs the victim's journal was tombstoned by the adopt;
	// digesting it twice proves replay idempotence over the fenced segment.
	if fallback {
		if _, err := durableLaunches(filepath.Join(victimDir, "adopted")); err != nil {
			return fired, fallback, fmt.Errorf("tombstone: %w", err)
		}
	}

	if err := sup.DrainAll(5 * time.Second); err != nil {
		return fired, fallback, fmt.Errorf("drain: %v", err)
	}
	return fired, fallback, nil
}
