package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
)

func TestMatrixMarksFailAndReturnsFirstError(t *testing.T) {
	errB, errC := errors.New("b broke"), errors.New("c broke")
	var order []string
	cells := seedMatrix(5, []string{"a", "b", "c"}, func(s int64, c string) cell {
		order = append(order, fmt.Sprintf("%s%d", c, s))
		var err error
		switch {
		case c == "b" && s == 6:
			err = errB
		case c == "c":
			err = errC
		}
		return cell{cols: []any{c, s, 7}, err: err}
	})
	if got, want := strings.Join(order, " "), "a5 b5 c5 a6 b6 c6"; got != want {
		t.Fatalf("cells ran %q, want %q", got, want)
	}
	m := matrix{title: "T", header: []string{"site", "seed", "n"}, keys: 2, footer: "all good"}
	out, err := m.render(cells)
	if !errors.Is(err, errC) || !strings.Contains(err.Error(), "site=c seed=5") {
		t.Fatalf("err = %v, want the first failure (site=c seed=5) wrapping %v", err, errC)
	}
	for _, want := range []string{"a    5    7 PASS\n", "c    5    7 FAIL: c broke\n", "b    6    7 FAIL: b broke\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks row %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "all good") {
		t.Errorf("a failing matrix printed its all-PASS footer:\n%s", out)
	}

	out, err = m.render(cells[:1])
	if err != nil || !strings.HasSuffix(out, "\nall good\n") {
		t.Fatalf("all-PASS matrix: err=%v, render:\n%s", err, out)
	}
}

func TestDoubleRunCatchesDifferingSecondRun(t *testing.T) {
	runs := 0
	out, err := doubleRun(func() (string, string, error) {
		runs++
		return fmt.Sprintf("render %d", runs), fmt.Sprintf("same %d", runs), nil
	})
	if !errors.Is(err, errNotIdentical) {
		t.Fatalf("differing second run: err = %v, want errNotIdentical", err)
	}
	if !strings.Contains(out, "same 1") || !strings.Contains(out, "same 2") {
		t.Errorf("mismatch output does not show both compared texts:\n%s", out)
	}

	// Only the compared text counts: a render carrying wall-clock figures
	// may differ.
	runs = 0
	out, err = doubleRun(func() (string, string, error) {
		runs++
		return fmt.Sprintf("took %dms", runs), "same", nil
	})
	if err != nil || out != "took 1ms\ndouble run byte-identical: true\n" {
		t.Fatalf("identical runs: err=%v out=%q", err, out)
	}

	// A failing run returns at once, with its render.
	runs = 0
	boom := errors.New("boom")
	out, err = doubleRun(func() (string, string, error) {
		runs++
		return "table", "table", boom
	})
	if !errors.Is(err, boom) || out != "table" || runs != 1 {
		t.Fatalf("failing run: err=%v out=%q runs=%d", err, out, runs)
	}
}

// serverWithRuns returns a daemon on which each named source kernel has
// executed the given number of times.
func serverWithRuns(t *testing.T, runs map[string]int) *daemon.Server {
	t.Helper()
	srv, dial := daemon.NewLocal(2)
	cli, err := client.Local(srv, dial, "ledger-test", client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range runs {
		for i := 0; i < n; i++ {
			if err := launchNamed(cli.LaunchSourceDegraded, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	for name, n := range runs {
		if got := srv.Exec.Runs("src:" + name); got != n {
			t.Fatalf("%s ran %d times, want %d", name, got, n)
		}
	}
	return srv
}

func TestLedgerAudit(t *testing.T) {
	cases := []struct {
		name    string
		durable map[string]bool // accept durable; true = completion durable
		runs    map[string]int
		acked   bool // the launch was acked
		synced  bool // ... and synced
		pending bool // ... and re-sent by Resume
		wantErr string
	}{
		{name: "replayed once", durable: map[string]bool{"k": false}, runs: map[string]int{"k": 1}, acked: true},
		{name: "completed before the fault", durable: map[string]bool{"k": true}, acked: true, synced: true},
		{name: "re-sent pending op", runs: map[string]int{"k": 1}, pending: true},
		{name: "never accepted, never ran"},
		{name: "double execution", durable: map[string]bool{"k": true}, runs: map[string]int{"k": 1},
			wantErr: "1 executions + 1 durable completion, want exactly 1"},
		{name: "synced without durable completion", durable: map[string]bool{"k": false}, runs: map[string]int{"k": 1},
			acked: true, synced: true, wantErr: "its completion is not durable"},
		{name: "never accepted yet ran", runs: map[string]int{"k": 1}, wantErr: "never accepted, yet ran 1 times"},
		{name: "re-sent pending op lost", pending: true, wantErr: "re-sent pending op ran 0 times"},
		{name: "acked without durable accept", runs: map[string]int{"k": 1}, acked: true, pending: true,
			wantErr: "write-ahead violated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := newLedger([]string{"k"})
			if tc.acked {
				if err := led.record("k", nil); err != nil {
					t.Fatal(err)
				}
			}
			if tc.synced {
				led.synchronize(nil)
			}
			if tc.pending {
				led.hold([]uint64{1})
			}
			_, _, err := led.audit(tc.durable, []*daemon.Server{serverWithRuns(t, tc.runs)})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("audit failed a clean ledger: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("audit = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestLedgerTokensAndPending(t *testing.T) {
	led := newLedger([]string{"a", "b", "c", "d"})
	if err := led.record("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := led.record("b", fmt.Errorf("wrapped: %w", client.ErrDaemonDown)); err != nil {
		t.Fatalf("a daemon death in flight must not fail the scenario: %v", err)
	}
	if err := led.record("c", errors.New("bad kernel")); err == nil {
		t.Fatal("an unexpected launch error passed")
	}
	led.synchronize(errors.New("daemon down"))
	if len(led.synced) != 0 {
		t.Fatal("a failed Synchronize marked launches synced")
	}
	led.synchronize(nil)
	if !led.acked["a"] || led.acked["b"] || !led.synced["a"] || led.synced["b"] {
		t.Fatalf("acked=%v synced=%v, want only a in each", led.acked, led.synced)
	}
	led.hold([]uint64{3, 99}) // op 3 is launch c; 99 is no scripted launch
	if !led.pending["c"] || len(led.pending) != 1 {
		t.Fatalf("pending = %v, want only c", led.pending)
	}

	survivors := []*daemon.Server{serverWithRuns(t, map[string]int{"b": 1}), serverWithRuns(t, map[string]int{"c": 1})}
	replayed, tokens, err := led.audit(map[string]bool{"a": true, "b": false}, survivors)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 || tokens != "AD/0,0 A-/1,0 --/0,1 --/0,0" {
		t.Fatalf("replayed=%d tokens=%q", replayed, tokens)
	}
}

func TestDurableLaunchesParsesRealDigest(t *testing.T) {
	dir := t.TempDir()
	srv, dial := daemon.NewLocal(2)
	if _, err := srv.EnableDurability(daemon.Durability{Dir: dir, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	cli, err := client.Local(srv, dial, "digest-test", client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"k_one", "k_two"} {
		if err := launchNamed(cli.LaunchSourceDegraded, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	digest, err := daemon.StateDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := durableLaunches(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got["k_one"] || !got["k_two"] {
		t.Fatalf("durable launches = %v, want k_one and k_two done; digest:\n%s", got, digest)
	}

	// Accept-time failures and non-source launches are not launches the
	// audit counts.
	ops := parseDigestOps("  op=1 code=0 done=false src=true kernel=a\n" +
		"  op=2 code=3 done=false src=true kernel=b\n" +
		"  op=3 code=0 done=true src=false kernel=c\n")
	if len(ops) != 1 || ops["a"] {
		t.Fatalf("parseDigestOps = %v, want only a, not done", ops)
	}
}

func TestFlQuantileUSNearestRank(t *testing.T) {
	series := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i+1) * time.Microsecond
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		return ds
	}
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{0, 0.5, 0},
		{1, 0.99, 1},
		{4, 0.5, 2},
		{5, 0.5, 3},
		{100, 0.99, 99},
		{1070, 0.99, 1060}, // frac(q·n) = 0.3: rounding picked rank 1059
		{1070, 0.5, 535},
		{10, 1, 10},
	}
	for _, tc := range cases {
		if got := flQuantileUS(series(tc.n), tc.q); got != tc.want {
			t.Errorf("flQuantileUS(n=%d, q=%v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// TestChaosScenarios runs every in-process chaos scenario once at seed 1:
// each must pass all of its checks and, where it double-runs, reproduce.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(int64) (string, error)
	}{
		{"faults", runFaults},
		{"overload", runOverload},
		{"crashchaos", runCrashChaos},
		{"fleetchaos", runFleetChaos},
		{"rollingchaos", runRollingChaos},
	} {
		t.Run(sc.name, func(t *testing.T) {
			out, err := sc.run(1)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if strings.Contains(out, "FAIL") {
				t.Fatalf("passing run rendered a FAIL:\n%s", out)
			}
		})
	}
}
