package main

import (
	"errors"
	"testing"
	"time"

	"slate/internal/client"
	"slate/internal/daemon"
	"slate/workloads"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {0.505, 51}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of n samples is rank ceil(0.99n); it needs n - rank >= 10.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must fail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestFailRatioCountsEveryFailure(t *testing.T) {
	var l ledger
	l.record(nil)
	l.record(client.ErrBackpressure)
	l.record(nil)
	l.record(errors.New("wrong output"))
	if got := l.failRatio(); got != 0.5 {
		t.Errorf("fail ratio = %v, want 0.5", got)
	}
}

// A launch the daemon refuses is a failed operation and a refused launch,
// never an acked one.
func TestFailRatioCountsRefusedLaunch(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	c, err := client.Local(srv, dial, "refusal-test", client.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	mm := workloads.NewSGEMM(16)
	spec, chk := mm.Kernel(), mmCheck(mm, 1)
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(10 * time.Second) }()

	e := &env{led: &ledger{}}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := launchChecked(e, c, spec, chk); !ok {
			break // refused: the daemon is draining
		}
		if time.Now().After(deadline) {
			t.Fatal("the draining daemon never refused a launch")
		}
	}
	c.Close()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	attempted, failed, firstErr := e.led.counts()
	if failed != 1 || !errors.Is(firstErr, client.ErrDraining) {
		t.Errorf("ledger %d/%d failed, first error %v; want exactly the refusal", failed, attempted, firstErr)
	}
	if e.refused.Load() != 1 {
		t.Errorf("refused = %d, want 1", e.refused.Load())
	}
	if e.led.failRatio() <= 0 {
		t.Error("a refused launch must raise the fail ratio")
	}
}
