// The fleetchaos experiment: failure-injection testing for the
// multi-daemon fleet layer. For every fleet member, every injected fault —
// a death at each journal crash site, an operator kill, a network
// partition — and two consecutive seeds, it runs scripted client sessions
// across a three-member fleet, murders the victim mid-workload, lets the
// phi-accrual detector (or the operator path) notice, and asserts the
// failover contract fleet-wide:
//
//   - exactly-once: for every launch the victim accepted durably, durable
//     completions on the victim plus executions on surviving members sum to
//     one — no accepted launch runs twice, anywhere;
//   - no completed launch is lost: every launch the client synced before
//     the fault is done=true in the victim's tombstoned journal;
//   - no session starves: the victim's session resumes on the adopter with
//     its original token and completes new work; surviving sessions never
//     notice; DrainAll terminates;
//   - determinism: the whole matrix, run twice in-process with the same
//     seed, renders byte-identically, down to each victim launch's durable
//     accept, durable completion and executions on each survivor.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/fault"
	"slate/internal/fleet"
)

// fcFaults lists the injected fleet faults: a daemon death at each journal
// crash site, an operator-initiated kill, and a network partition.
var fcFaults = append(append([]string{}, journalSites...), "kill", "partition")

const (
	fcVictimLaunches = 5
	fcOtherLaunches  = 3
)

// fcCase is one matrix case: which member is the victim, and its fault.
type fcCase struct {
	victim int
	site   string
}

// fcResult is one (fault, victim, seed) cell.
type fcResult struct {
	fired    bool     // the injected fault actually landed
	synced   int      // launches synced (completion durable) before the fault
	replayed int      // incomplete launches the adopter re-executed
	ledger   string   // per victim launch: durable accept, completion, survivor runs
	acked    int      // launches the victim's client had acked
	pending  []uint64 // op IDs the victim's client held unsettled at the fault
	err      error
}

// runFleetChaos drives the matrix twice and demands the two runs agree on
// every seed-determined column, the victim's launch ledger included.
// Whether the victim's client saw an ack is not seed-determined — the
// daemon journals an accept and queues the kernel before it writes the ack,
// so when the armed crash is that launch's completion append, goroutine
// scheduling decides — so the client view prints outside the compared text.
func runFleetChaos(seed int64) (string, error) {
	var cases []fcCase
	for v := 0; v < fleetMembers; v++ {
		for _, site := range fcFaults {
			cases = append(cases, fcCase{v, site})
		}
	}
	return doubleRun(func() (string, string, error) {
		var view strings.Builder
		view.WriteString("Victim client view (not compared: ack delivery races the crash)\n")
		tw := tabwriter.NewWriter(&view, 0, 0, 1, ' ', 0)
		fmt.Fprintln(tw, "fault\tvictim\tseed\tacked\tpending")
		cells := seedMatrix(seed, cases, func(s int64, c fcCase) cell {
			r := fleetChaosLeg(s, c.victim, c.site)
			victim := fmt.Sprintf("gpu%d", c.victim)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%v\n", c.site, victim, s, r.acked, r.pending)
			return cell{cols: []any{c.site, victim, s, r.fired, r.synced, r.replayed, r.ledger}, err: r.err}
		})
		tw.Flush()
		table, err := matrix{
			title: "Fleet-chaos matrix (fault the member, detect, fail over, verify)\n" +
				"ledger: per victim launch, A = accept durable, D = completion durable, / executions on each survivor",
			header: []string{"fault", "victim", "seed", "fired", "synced", "replayed", "ledger"},
			keys:   3,
			footer: "all fleet faults recovered: exactly-once fleet-wide, no lost completions, no starved session",
		}.render(cells)
		return table + "\n" + view.String(), table, err
	})
}

// fleetChaosLeg runs one cell: build a three-member durable fleet, place one
// session per member, run the workload, inject the fault into the victim,
// drive detection and failover, then audit every invariant.
func fleetChaosLeg(seed int64, victimIdx int, site string) fcResult {
	var r fcResult
	base, err := os.MkdirTemp("", "fleetchaos")
	if err != nil {
		r.err = err
		return r
	}
	defer os.RemoveAll(base)

	// The victim gets the armed crash point (when the fault is a crash
	// site) and an aggressive compaction cadence so the checkpoint site is
	// reachable within the scripted workload.
	var crasher *fault.Crasher
	isCrashSite := site != "kill" && site != "partition"
	if isCrashSite {
		hit := uint64(3 + seed%3)
		if site == fault.SiteCheckpointMid {
			hit = uint64(seed % 2)
		}
		crasher = fault.NewCrasher(site, hit)
	}
	victimName := fmt.Sprintf("gpu%d", victimIdx)
	sup, err := newFleet(failoverConfig, base, func(i int, d *daemon.Durability) {
		if i == victimIdx && crasher != nil {
			d.Crash = crasher.Hook()
			d.CompactEvery = 4
		}
	})
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Unix(100_000, 0)
	sup.Tick(t0) // prime every detector with a healthy beat

	// One session per member, placed round-robin: client i lands on gpu<i>.
	clients := make([]*client.Client, fleetMembers)
	for i := range clients {
		m, err := sup.Route("")
		if err != nil {
			r.err = err
			return r
		}
		c, err := dialMember(m, fmt.Sprintf("fc-sess-%d", i), client.WithTimeout(5*time.Second))
		if err != nil {
			r.err = fmt.Errorf("handshake on %s: %w", m.Name, err)
			return r
		}
		clients[i] = c
	}
	victim := sup.MemberByName(victimName)
	vc := clients[victimIdx]
	token := vc.Token()

	// Victim workload: sync after every launch, so the journal append
	// sequence (and therefore the armed crash point) is deterministic, and
	// so "synced" exactly identifies launches with durable completions.
	names := make([]string, fcVictimLaunches)
	for i := range names {
		names[i] = kernelName("fc", site, seed, fmt.Sprintf("m%d", victimIdx), i)
	}
	led := newLedger(names)
	for _, name := range names {
		if r.err = led.record(name, launchNamed(vc.LaunchSourceDegraded, name)); r.err != nil {
			return r
		}
		led.synchronize(vc.Synchronize())
	}
	// Surviving sessions run their own work, synced up front so the fault
	// cannot be blamed for anything that happens to them later.
	for i, c := range clients {
		if i == victimIdx {
			continue
		}
		for j := 0; j < fcOtherLaunches; j++ {
			name := kernelName("fc", site, seed, fmt.Sprintf("m%d", i), j)
			if err := launchNamed(c.LaunchSourceDegraded, name); err != nil {
				r.err = fmt.Errorf("bystander launch %s: %v", name, err)
				return r
			}
		}
		if err := c.Synchronize(); err != nil {
			r.err = fmt.Errorf("bystander sync: %v", err)
			return r
		}
	}
	r.acked, r.synced = len(led.acked), len(led.synced)

	// Inject the fault and drive detection.
	switch {
	case isCrashSite:
		if !crasher.Fired() {
			r.err = errors.New("armed crash site never fired")
			return r
		}
		r.fired = true
		// The daemon died silently: only the failure detector notices.
		sup.Tick(t0.Add(700 * time.Millisecond))
		if st := victim.State(); st != fleet.StateSuspect {
			r.err = fmt.Errorf("after one missed beat: state=%v, want suspect", st)
			return r
		}
		sup.Tick(t0.Add(900 * time.Millisecond))
	case site == "partition":
		if err := sup.CutMember(victimName); err != nil {
			r.err = err
			return r
		}
		r.fired = true
		sup.Tick(t0.Add(900 * time.Millisecond))
	default: // operator kill: immediate fence + failover, no detection lag
		if err := sup.KillMember(victimName); err != nil {
			r.err = err
			return r
		}
		r.fired = true
	}
	if st := victim.State(); st != fleet.StateDown {
		r.err = fmt.Errorf("victim state=%v, want down", st)
		return r
	}

	// The session re-homed; resume it there with the original token.
	r.pending = vc.PendingOps()
	led.hold(r.pending)
	adopterName, lerr := sup.Locate(token, victimName)
	if !errors.Is(lerr, fleet.ErrRehomed) {
		r.err = fmt.Errorf("Locate = %q, %v; want ErrRehomed", adopterName, lerr)
		return r
	}
	dialer := sup.NewDialer()
	recovered, err := vc.Resume(dialer.DialFor(adopterName), client.RetryConfig{Attempts: 3})
	if err != nil {
		r.err = fmt.Errorf("resume at %s: %w", adopterName, err)
		return r
	}
	if !recovered {
		r.err = errors.New("resume reported state lost; adoption should have carried this session")
		return r
	}
	if err := vc.Synchronize(); err != nil {
		r.err = fmt.Errorf("post-failover sync: %v", err)
		return r
	}

	// Audit against the victim's tombstoned journal: exactly-once
	// fleet-wide (non-durable victim executions died with the device, so
	// only the survivors' count), and no completed launch lost.
	durable, err := durableLaunches(filepath.Join(victim.StateDir(), "adopted"))
	if err != nil {
		r.err = fmt.Errorf("tombstone: %w", err)
		return r
	}
	var survivors []*daemon.Server
	for _, m := range sup.Members() {
		if m.Name != victimName {
			survivors = append(survivors, m.Srv())
		}
	}
	if r.replayed, r.ledger, r.err = led.audit(durable, survivors); r.err != nil {
		return r
	}

	// A healed partition must not resurrect the fenced victim.
	if site == "partition" {
		if err := sup.HealMember(victimName); err != nil {
			r.err = err
			return r
		}
		if !victim.Srv().Crashed() {
			r.err = errors.New("healed victim was not fenced — split brain")
			return r
		}
	}

	// No session starves: the re-homed session and every bystander complete
	// fresh work and close cleanly.
	for i, c := range clients {
		name := kernelName("fc", site, seed, fmt.Sprintf("m%d", i), 90)
		if err := launchNamed(c.LaunchSourceDegraded, name); err != nil {
			r.err = fmt.Errorf("liveness launch session %d: %v", i, err)
			return r
		}
		if err := c.Synchronize(); err != nil {
			r.err = fmt.Errorf("liveness sync session %d: %v", i, err)
			return r
		}
		if err := c.Close(); err != nil {
			r.err = fmt.Errorf("close session %d: %v", i, err)
			return r
		}
	}
	if err := sup.DrainAll(5 * time.Second); err != nil {
		r.err = fmt.Errorf("drain: %v", err)
		return r
	}
	return r
}
