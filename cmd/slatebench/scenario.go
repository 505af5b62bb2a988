// The chaos scaffold: the jobs the chaos scenarios (faults, overload,
// crashchaos, fleetchaos, rollingchaos, fleetload) share, each kept once.
// A matrix scenario declares its cases (fault sites, victims) and a cell
// function that runs one case at one seed and returns the columns its row
// prints plus its audit's error; the scaffold runs every case at seeds N
// and N+1 and renders the PASS/FAIL table. A scenario whose outcome the
// seed determines also hands the double run the text two runs must
// reproduce byte for byte — the render, or a fuller trace behind it, never
// a wall-clock figure. Crash and failover scenarios keep a launch ledger
// and audit it against the journal's durable state, which is read twice to
// prove replay idempotent.
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
	"slate/internal/kern"
)

// siteTag makes a fault-site name usable inside a kernel identifier.
var siteTag = strings.NewReplacer(".", "_", "-", "_")

// kernelName identifies one scripted launch by scenario prefix, fault site,
// seed and per-launch parts, so its executions are countable on their own.
func kernelName(prefix, site string, seed int64, parts ...any) string {
	name := fmt.Sprintf("%s_%s_%d", prefix, siteTag.Replace(site), seed)
	for _, p := range parts {
		name += fmt.Sprintf("_%v", p)
	}
	return name
}

// kernelSource wraps a kernel name in minimal CUDA source the injection
// pipeline accepts.
func kernelSource(name string) string {
	return fmt.Sprintf("__global__ void %s(float *x, int n) { int i = blockIdx.x; if (i < n) x[i] = 1.0f; }", name)
}

// launchNamed launches kernel name from kernelSource with the scenarios'
// fixed geometry, through a client's or a fleet session's
// LaunchSourceDegraded.
func launchNamed(launch func(src, name string, grid, block kern.Dim3, task int) ([]string, bool, error), name string) error {
	_, _, err := launch(kernelSource(name), name, kern.D1(4), kern.D1(32), 4)
	return err
}

// seedPair is the seeds every matrix scenario covers: N and N+1.
func seedPair(seed int64) []int64 { return []int64{seed, seed + 1} }

// cell is one case of a chaos matrix at one seed: the columns its row
// prints before the verdict, and its audit's error (nil = PASS).
type cell struct {
	cols []any
	err  error
}

// seedMatrix runs one cell per case at each seed of the pair, seed-major.
func seedMatrix[C any](seed int64, cases []C, run func(seed int64, c C) cell) []cell {
	var cells []cell
	for _, s := range seedPair(seed) {
		for _, c := range cases {
			cells = append(cells, run(s, c))
		}
	}
	return cells
}

// matrix is a chaos matrix's table layout.
type matrix struct {
	title  string
	header []string // columns before the verdict
	keys   int      // leading columns that name a failing cell in the error
	footer string   // closes an all-PASS table
}

// render prints one row per cell ending in PASS or FAIL and the cell's
// error, and returns the first failure.
func (m matrix) render(cells []cell) (string, error) {
	var b strings.Builder
	b.WriteString(m.title + "\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 1, ' ', 0)
	fmt.Fprintln(tw, strings.Join(m.header, "\t")+"\tverdict")
	var first error
	for _, c := range cells {
		verdict := "PASS"
		if c.err != nil {
			verdict = "FAIL: " + c.err.Error()
			if first == nil {
				key := make([]string, m.keys)
				for i := range key {
					key[i] = fmt.Sprintf("%s=%v", m.header[i], c.cols[i])
				}
				first = fmt.Errorf("%s: %w", strings.Join(key, " "), c.err)
			}
		}
		for _, v := range c.cols {
			fmt.Fprintf(tw, "%v\t", v)
		}
		fmt.Fprintln(tw, verdict)
	}
	tw.Flush()
	if first != nil {
		return b.String(), first
	}
	return b.String() + "\n" + m.footer + "\n", nil
}

// errNotIdentical reports a double run whose two runs differed.
var errNotIdentical = errors.New("double run not byte-identical")

// doubleRun runs a scenario twice in-process and requires the
// seed-determined text of the two runs to match byte for byte. run returns
// its render and that text. A run's error returns at once, with its render;
// a mismatch returns both runs' texts.
func doubleRun(run func() (render, same string, err error)) (string, error) {
	r1, s1, err := run()
	if err != nil {
		return r1, err
	}
	r2, s2, err := run()
	if err != nil {
		return r2, err
	}
	if s1 != s2 {
		return s1 + "\n--- second run ---\n" + s2, errNotIdentical
	}
	return r1 + "\ndouble run byte-identical: true\n", nil
}

// doubleRunSeeds double-runs a script at each seed of the pair and joins
// the renders; the first failure returns, named by its seed.
func doubleRunSeeds(seed int64, run func(seed int64) (render, same string, err error)) (string, error) {
	var b strings.Builder
	var first error
	for _, s := range seedPair(seed) {
		out, err := doubleRun(func() (string, string, error) { return run(s) })
		b.WriteString(out + "\n")
		if err != nil && first == nil {
			first = fmt.Errorf("seed %d: %w", s, err)
		}
	}
	return b.String(), first
}

// verdicts renders named PASS/FAIL checks, one per line, into b.
type verdicts struct {
	b      *strings.Builder
	failed int
}

func (v *verdicts) check(name string, ok bool, format string, args ...any) {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
		v.failed++
	}
	fmt.Fprintf(v.b, "[%s] %-50s (%s)\n", mark, name, fmt.Sprintf(format, args...))
}

// err reports how many checks failed, or nil.
func (v *verdicts) err() error {
	if v.failed > 0 {
		return fmt.Errorf("%d invariant(s) violated", v.failed)
	}
	return nil
}

// ledger is a crash or failover scenario's record of its scripted
// launches, for the exactly-once audit. Launch i carried op ID i+1.
type ledger struct {
	names   []string
	acked   map[string]bool // the client got a success ack
	synced  map[string]bool // a Synchronize after the ack succeeded
	pending map[string]bool // unsettled at the fault: Resume re-sends these
}

func newLedger(names []string) *ledger {
	return &ledger{names: names, acked: map[string]bool{}, synced: map[string]bool{}, pending: map[string]bool{}}
}

// synchronize records a Synchronize's outcome: on success every launch
// acked so far has completed, so its completion record must be durable.
func (l *ledger) synchronize(err error) {
	if err != nil {
		return
	}
	for n := range l.acked {
		l.synced[n] = true
	}
}

// record notes a launch's or batch's outcome: a success ack, or a daemon
// that died with it in flight — the point of the scenario, not an error:
// the client may hold it as a pending op Resume re-sends. Any other error
// fails the scenario.
func (l *ledger) record(name string, err error) error {
	switch {
	case err == nil:
		l.acked[name] = true
	case errors.Is(err, client.ErrDaemonDown) || errors.Is(err, client.ErrTimeout):
	default:
		return fmt.Errorf("%s: unexpected %w", name, err)
	}
	return nil
}

// hold records the client's unsettled op IDs at the fault.
func (l *ledger) hold(ops []uint64) {
	for _, op := range ops {
		if op >= 1 && op <= uint64(len(l.names)) {
			l.pending[l.names[op-1]] = true
		}
	}
}

// audit checks every scripted launch against the durable launches (by
// kernel name; true = completion durable) and its executions on the
// daemons that count — those whose runs outlived the fault:
//
//   - a durable accept: executions plus the durable completion sum to one;
//   - a re-sent pending op: it ran exactly once;
//   - anything else was never accepted and must never have run;
//   - synced ⇒ durable completion, and acked ⇒ durable accept (write-ahead).
//
// It returns how many durable accepts lacked a durable completion (the
// launches recovery had to re-execute) and one seed-determined token per
// launch: A if its accept is durable, D if its completion is, then its
// executions on each counted daemon.
func (l *ledger) audit(durable map[string]bool, counted []*daemon.Server) (replayed int, tokens string, err error) {
	toks := make([]string, len(l.names))
	for i, name := range l.names {
		runs, per := 0, make([]string, len(counted))
		for j, srv := range counted {
			n := srv.Exec.Runs("src:" + name)
			runs += n
			per[j] = fmt.Sprint(n)
		}
		done, accepted := durable[name]
		toks[i] = fmt.Sprintf("%s%s/%s", orDash(accepted, "A"), orDash(done, "D"), strings.Join(per, ","))
		switch {
		case accepted:
			d := 0
			if done {
				d = 1
			} else {
				replayed++
			}
			if runs+d != 1 {
				return replayed, "", fmt.Errorf("%s: %d executions + %d durable completion, want exactly 1", name, runs, d)
			}
		case l.pending[name]:
			if runs != 1 {
				return replayed, "", fmt.Errorf("%s: re-sent pending op ran %d times, want 1", name, runs)
			}
		case runs != 0:
			return replayed, "", fmt.Errorf("%s: never accepted, yet ran %d times", name, runs)
		}
		if l.synced[name] && !done {
			return replayed, "", fmt.Errorf("%s: synced before the fault but its completion is not durable (lost completion)", name)
		}
		if l.acked[name] && !accepted {
			return replayed, "", fmt.Errorf("%s: acked but its accept record is not durable (write-ahead violated)", name)
		}
	}
	return replayed, strings.Join(toks, " "), nil
}

// orDash is s when set, else "-".
func orDash(set bool, s string) string {
	if set {
		return s
	}
	return "-"
}

// durableLaunches reads the durable state in dir twice and requires the
// two digests to match — replay is idempotent, and any torn tail the first
// read cuts must not change what the second sees — then returns the
// accepted source launches by kernel name (true = completion durable).
func durableLaunches(dir string) (map[string]bool, error) {
	var digests [2]string
	for i := range digests {
		d, err := daemon.StateDigest(dir)
		if err != nil {
			return nil, fmt.Errorf("state digest %d: %w", i+1, err)
		}
		digests[i] = d
	}
	if digests[0] != digests[1] {
		return nil, errors.New("state digest changed between consecutive replays")
	}
	return parseDigestOps(digests[0]), nil
}

// parseDigestOps extracts the accept-time successful source launches from
// a StateDigest's dedup-window lines, by kernel name (true = done).
func parseDigestOps(digest string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(digest, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "op=") {
			continue
		}
		var kernel string
		var done, okCode, src bool
		for _, f := range strings.Fields(line) {
			switch {
			case strings.HasPrefix(f, "kernel="):
				kernel = strings.TrimPrefix(f, "kernel=")
			case f == "done=true":
				done = true
			case f == "code=0":
				okCode = true
			case f == "src=true":
				src = true
			}
		}
		if kernel != "" && okCode && src {
			out[kernel] = done
		}
	}
	return out
}

// journalSites are the daemon deaths the failover scenarios inject: one
// at each journal crash site.
var journalSites = []string{fault.SiteJournalAppendPre, fault.SiteJournalAppendPost, fault.SiteCheckpointMid}

// failoverConfig is the fleet the failover scenarios build: phi-accrual
// detection driven by a synthetic clock, automatic failover, round-robin
// placement so a double run re-homes identically, and reject-mode
// partitions.
var failoverConfig = fleet.Config{
	HeartbeatEvery: 500 * time.Millisecond,
	PingTimeout:    2 * time.Second,
	MinStd:         50 * time.Millisecond,
	AutoFailover:   true,
	RoundRobin:     true,
	PartitionMode:  fault.PartitionReject,
}

// fleetMembers is the size of every scenario fleet: gpu0, gpu1, gpu2.
const fleetMembers = 3

// newFleet builds a three-member fleet, gpu0..gpu2. With base set every
// member is durable under base/m<i> with fsync off, and tune (if set) may
// adjust member i's durability — arm a crash point, compact sooner —
// before the member starts.
func newFleet(cfg fleet.Config, base string, tune func(i int, d *daemon.Durability)) (*fleet.Supervisor, error) {
	sup := fleet.New(cfg)
	for i, prof := range [fleetMembers]string{"A100", "TitanXp", "P100"} {
		spec := fleet.MemberSpec{Name: fmt.Sprintf("gpu%d", i), Profile: prof}
		if base != "" {
			d := &daemon.Durability{Dir: filepath.Join(base, fmt.Sprintf("m%d", i)), NoSync: true}
			if err := os.MkdirAll(d.Dir, 0o755); err != nil {
				return nil, err
			}
			if tune != nil {
				tune(i, d)
			}
			spec.Durability = d
		}
		if _, err := sup.AddMember(spec); err != nil {
			return nil, err
		}
	}
	return sup, nil
}

// dialMember opens a client session straight on fleet member m.
func dialMember(m *fleet.Member, proc string, opts ...client.Option) (*client.Client, error) {
	nc, err := m.Dial()()
	if err != nil {
		return nil, err
	}
	return client.New(nc, proc, opts...)
}

// waitSessions waits until srv has no live session — every teardown,
// abrupt ones included, has run — or timeout passes.
func waitSessions(srv *daemon.Server, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for srv.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
