// The crashchaos experiment: kill-and-restart testing for the daemon's
// crash-safe state layer. For every crash site in the fault matrix and two
// consecutive seeds, it runs a scripted client workload against a durable
// daemon with an armed crash point, lets the "process" die mid-protocol,
// and restarts over the same state directory, asserting the recovery
// contract:
//
//   - no acked launch is lost or duplicated: for every source launch whose
//     accept record is durable (or that the resuming client re-sends), the
//     executions in the second incarnation plus the durable completions
//     from the first sum to exactly one, and a launch synced before the
//     crash has a durable completion;
//   - journal replay is idempotent: two consecutive state digests of the
//     same directory are identical;
//   - a recovered profile table is byte-identical to a clean run's;
//   - drain after recovery terminates cleanly.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/internal/device"
	"slate/internal/engine"
	"slate/internal/fault"
	"slate/internal/journal"
	"slate/internal/kern"
	"slate/internal/profile"
)

// ccResult is one (site, seed) cell of the crashchaos matrix.
type ccResult struct {
	fired    bool  // the armed crash point actually fired
	acked    int   // launches the first incarnation acked before dying
	replayed int   // accepted-incomplete launches recovery re-executed
	deduped  int   // duplicate sends the dedup window absorbed
	trunc    int64 // torn-tail bytes replay cut from the journal
	err      error
}

// runCrashChaos drives the full matrix: every crash site, two consecutive
// seeds. It stays out of the double run: the single-launch workload syncs
// only every second launch, so completion appends interleave with accepts
// and the acked/replayed/torn columns vary run to run.
func runCrashChaos(seed int64) (string, error) {
	return matrix{
		title:  "Crash-chaos matrix (kill at site, restart, verify recovery)",
		header: []string{"site", "seed", "fired", "acked", "replayed", "deduped", "torn"},
		keys:   2,
		footer: "all crash sites recovered: exactly-once launches, idempotent replay, clean drain",
	}.render(seedMatrix(seed, fault.CrashSites(), func(s int64, site string) cell {
		var r ccResult
		if site == fault.SiteProfileRenameMid {
			r = profileCrashLeg(s)
		} else {
			r = crashLeg(s, site)
		}
		return cell{cols: []any{site, s, r.fired, r.acked, r.replayed, r.deduped, r.trunc}, err: r.err}
	}))
}

// crashLeg runs one journal crash site: incarnation one dies at the armed
// site mid-workload, incarnation two recovers the same state directory,
// the client resumes, and the ledger audits exactly-once per launch.
//
// The group-commit sites submit the workload as OpLaunchBatch frames, so
// the crash fires inside journal.AppendBatch — mid-write (a torn prefix of
// the group: some accept records whole, the next frame cut, nothing acked)
// or post-sync (the whole group durable, the batch ack lost) — and the
// client holds the whole in-flight batch as pending ops, all of which
// Resume must replay under their original IDs. Every other site submits
// single launches.
func crashLeg(seed int64, site string) ccResult {
	var r ccResult
	dir, err := os.MkdirTemp("", "crashchaos")
	if err != nil {
		r.err = err
		return r
	}
	defer os.RemoveAll(dir)

	// Varying the armed hit with the seed moves the death around the
	// script. Single launches sync after every second one, so some
	// launches have durable completion records when the crash lands;
	// append sites arm past the session-open append so the handshake
	// always succeeds, and the checkpoint site arms an early compaction
	// (the log compacts every 4 records, so later hits would need a longer
	// script). Batches of four sync after each batch, which fixes the
	// daemon's AppendBatch order — accept(batch1), completions(batch1),
	// accept(batch2), completions(batch2) — so the hit walks the death
	// across all four.
	batched := site == fault.SiteJournalBatchMid || site == fault.SiteJournalBatchPost
	group, compact, hit := 2, 4, uint64(2+seed%3)
	switch {
	case batched:
		group, compact, hit = 4, 64, uint64(seed%4)
	case site == fault.SiteCheckpointMid:
		hit = uint64(seed % 2)
	}
	srv1, dial1 := daemon.NewLocal(4)
	crasher := fault.NewCrasher(site, hit)
	if _, err := srv1.EnableDurability(daemon.Durability{
		Dir: dir, CompactEvery: compact, Crash: crasher.Hook(), NoSync: true,
	}); err != nil {
		r.err = err
		return r
	}
	cli, err := client.New(dial1(), "crashchaos", client.WithTimeout(5*time.Second))
	if err != nil {
		r.err = fmt.Errorf("incarnation 1 handshake: %w", err)
		return r
	}

	const launches = 8
	names := make([]string, launches)
	for i := range names {
		names[i] = kernelName("cc", site, seed, i)
	}
	led := newLedger(names)
	// submit sends one group and records its acks.
	submit := func(group []string) error {
		if !batched {
			for _, name := range group {
				if err := led.record(name, launchNamed(cli.LaunchSourceDegraded, name)); err != nil {
					return err
				}
			}
			return nil
		}
		b := cli.NewBatch()
		for _, name := range group {
			if err := b.LaunchSource(kernelSource(name), name, kern.D1(4), kern.D1(32), 4); err != nil {
				return fmt.Errorf("batch build %s: %w", name, err)
			}
		}
		acks, err := b.Submit()
		if err != nil {
			return led.record(fmt.Sprintf("batch %v", group), err)
		}
		for i, a := range acks {
			if a.Code == 0 {
				led.acked[group[i]] = true
			}
		}
		return nil
	}
	for g := 0; g < launches; g += group {
		if r.err = submit(names[g : g+group]); r.err != nil {
			return r
		}
		led.synchronize(cli.Synchronize())
	}
	if !crasher.Fired() {
		r.err = fmt.Errorf("crash site never fired (armed hit %d)", hit)
		return r
	}
	led.hold(cli.PendingOps())
	r.fired = true
	r.acked = len(led.acked)
	// Let incarnation 1's teardown settle: its conns are closed, and every
	// in-flight launch either finished (journaling to a dead writer, a
	// no-op) or never will.
	waitSessions(srv1, 5*time.Second)
	_ = srv1.CloseDurability()

	// A stats-only replay first: it observes (and cuts) the torn tail the
	// crash left, before the digest passes re-read the file.
	jstats, err := journal.Replay(filepath.Join(dir, daemon.JournalFile), func(*journal.Record) error { return nil })
	if err != nil {
		r.err = fmt.Errorf("journal replay: %w", err)
		return r
	}
	r.trunc = jstats.TruncatedBytes
	durable, err := durableLaunches(dir)
	if err != nil {
		r.err = err
		return r
	}

	// Incarnation 2: recover, resume, verify. Incarnation 1 executions
	// without a durable completion died with the device, so only
	// incarnation 2's count.
	srv2, dial2 := daemon.NewLocal(4)
	stats, err := srv2.EnableDurability(daemon.Durability{Dir: dir, NoSync: true})
	if err != nil {
		r.err = fmt.Errorf("recovery: %w", err)
		return r
	}
	r.replayed = stats.Replayed
	recovered, err := cli.Resume(func() (net.Conn, error) { return dial2(), nil }, client.RetryConfig{Attempts: 3})
	if err != nil {
		r.err = fmt.Errorf("resume: %w", err)
		return r
	}
	if !recovered {
		r.err = errors.New("resume reported state lost; the journal should have held this session")
		return r
	}
	if err := cli.Synchronize(); err != nil {
		r.err = fmt.Errorf("post-resume sync: %w", err)
		return r
	}
	if _, _, r.err = led.audit(durable, []*daemon.Server{srv2}); r.err != nil {
		return r
	}

	// Liveness after recovery: fresh work on the resumed session, submitted
	// the same way.
	live := kernelName("cc", site, seed, 99)
	if r.err = submit([]string{live}); r.err != nil {
		return r
	}
	if !led.acked[live] {
		r.err = errors.New("post-recovery launch was not acked")
		return r
	}
	if err := cli.Synchronize(); err != nil {
		r.err = fmt.Errorf("post-recovery sync: %w", err)
		return r
	}
	r.deduped = srv2.DedupHits()
	if err := cli.Close(); err != nil {
		r.err = fmt.Errorf("close: %w", err)
		return r
	}

	// Drain-after-recovery must terminate.
	if err := srv2.Drain(5 * time.Second); err != nil {
		r.err = fmt.Errorf("drain after recovery: %w", err)
		return r
	}
	_ = srv2.CloseDurability()
	return r
}

// profileCrashLeg runs the profile.rename.mid site: a crash between the
// durable temp write and the rename must leave the previous table intact,
// and the post-restart save must be byte-identical to a clean run's.
func profileCrashLeg(seed int64) ccResult {
	var r ccResult
	dir, err := os.MkdirTemp("", "crashchaos-prof")
	if err != nil {
		r.err = err
		return r
	}
	defer os.RemoveAll(dir)

	newProf := func() *profile.Profiler {
		return profile.New(device.TitanXp(),
			&engine.StaticModel{DefaultHit: 0, DefaultRunBytes: 1 << 20, SlateRunFactor: 1})
	}
	measure := func(p *profile.Profiler, extra bool) error {
		specs := []*kern.Spec{
			{Name: fmt.Sprintf("ccp-a-%d", seed), Grid: kern.D1(256), BlockDim: kern.D1(256),
				FLOPsPerBlock: 1e7, InstrPerBlock: 1e5, L2BytesPerBlock: 1e4, ComputeEff: 0.5, MemMLP: 8},
			{Name: fmt.Sprintf("ccp-b-%d", seed), Grid: kern.D1(128), BlockDim: kern.D1(256),
				FLOPsPerBlock: 1e4, InstrPerBlock: 1e5, L2BytesPerBlock: 1e7, ComputeEff: 0.5, MemMLP: 8},
		}
		if extra {
			specs = append(specs, &kern.Spec{
				Name: fmt.Sprintf("ccp-c-%d", seed), Grid: kern.D1(64), BlockDim: kern.D1(256),
				FLOPsPerBlock: 1e5, InstrPerBlock: 1e5, L2BytesPerBlock: 1e5, ComputeEff: 0.5, MemMLP: 8})
		}
		for _, s := range specs {
			if _, err := p.Get(s); err != nil {
				return err
			}
		}
		return nil
	}
	// publish measures into p, saves its table at path cleanly, and reads
	// the published bytes back.
	publish := func(p *profile.Profiler, extra bool, path string) ([]byte, error) {
		if err := measure(p, extra); err != nil {
			return nil, err
		}
		if err := p.SaveFile(path, nil); err != nil {
			return nil, err
		}
		return os.ReadFile(path)
	}

	// The clean run: the bytes recovery must converge to.
	cleanBytes, err := publish(newProf(), true, filepath.Join(dir, "clean.profiles"))
	if err != nil {
		r.err = err
		return r
	}

	// The crashing run: publish a first (smaller) table, then die mid-rename
	// of the second. The table on disk must still be the first one.
	path := filepath.Join(dir, "daemon.profiles")
	victim := newProf()
	before, err := publish(victim, false, path)
	if err != nil {
		r.err = err
		return r
	}
	if err := measure(victim, true); err != nil {
		r.err = err
		return r
	}
	crasher := fault.NewCrasher(fault.SiteProfileRenameMid, 0)
	err = victim.SaveFile(path, crasher.Hook())
	if !errors.Is(err, fault.ErrCrash) {
		r.err = fmt.Errorf("crashing save returned %v, want ErrCrash", err)
		return r
	}
	r.fired = crasher.Fired()
	after, err := os.ReadFile(path)
	if err != nil {
		r.err = fmt.Errorf("table vanished under a mid-rename crash: %w", err)
		return r
	}
	if !bytes.Equal(before, after) {
		r.err = errors.New("mid-rename crash tore the published table")
		return r
	}

	// Restart: load what survived, re-measure, save cleanly. The result
	// must be byte-identical to the clean run.
	restarted := newProf()
	st, err := restarted.LoadFile(path)
	if err != nil {
		r.err = err
		return r
	}
	if st.Quarantined != 0 || st.TruncatedTail != 0 {
		r.err = fmt.Errorf("recovered table reported damage: %+v", st)
		return r
	}
	r.acked = st.Loaded
	got, err := publish(restarted, true, path)
	if err != nil {
		r.err = err
		return r
	}
	if !bytes.Equal(got, cleanBytes) {
		r.err = errors.New("recovered profile table differs from a clean run's bytes")
		return r
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		r.err = errors.New("crashed publish left a temp file behind after recovery")
		return r
	}
	return r
}
