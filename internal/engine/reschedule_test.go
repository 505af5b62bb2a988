package engine

import (
	"fmt"
	"testing"

	"slate/internal/device"
	"slate/internal/vtime"
	"slate/workloads"
)

// corunFingerprint runs the Fig. 7-style SGEMM×Transpose pairing — one Slate
// co-run on split SM ranges and, after it drains, one hardware leftover
// co-run — and renders every metric the experiments consume at their
// 3-decimal precision, plus the dispatched-event count.
func corunFingerprint(t *testing.T, rescheduleEvery bool) (string, uint64) {
	t.Helper()
	clk := vtime.NewClock()
	dev := device.TitanXp()
	e := New(dev, clk, NewTraceModel(dev))
	e.RescheduleEveryEvent = rescheduleEvery

	sg := workloads.SGEMMApp().Kernel
	tr := workloads.TransposeApp().Kernel

	mid := dev.NumSMs / 2
	a, err := e.Launch(sg, LaunchOpts{Mode: SlateSched, SMLow: 0, SMHigh: mid - 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Launch(tr, LaunchOpts{Mode: SlateSched, SMLow: mid, SMHigh: dev.NumSMs - 1})
	if err != nil {
		t.Fatal(err)
	}
	run(t, clk)

	c, err := e.Launch(sg, LaunchOpts{Mode: HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Launch(tr, LaunchOpts{Mode: HardwareSched})
	if err != nil {
		t.Fatal(err)
	}
	run(t, clk)

	out := ""
	for _, h := range []*Handle{a, b, c, d} {
		m := h.Metrics()
		out += fmt.Sprintf("%s: dur=%.3fms gflops=%.3f dram=%.3f access=%.3f thr=%.3f ipc=%.3f at=%d\n",
			h.Spec().Name, m.Duration().Millis(), m.GFLOPS(), m.DRAMBW(),
			m.AccessBW(), m.StallMemThrottle, m.IPC(dev.SM.ClockHz), m.Atomics)
	}
	return out, clk.Fired()
}

// TestRescheduleSkipReducesEvents pins the recompute churn fix: with the
// skip enabled the same workload dispatches measurably fewer events, and the
// metrics the experiments render are unchanged. The skip introduces at most
// sub-nanosecond completion-time drift (remaining/rate is re-derived rather
// than carried), so metric equality is asserted at the experiments' 3-decimal
// rendering rather than bitwise.
func TestRescheduleSkipReducesEvents(t *testing.T) {
	always, firedAlways := corunFingerprint(t, true)
	skip, firedSkip := corunFingerprint(t, false)
	if firedSkip >= firedAlways {
		t.Fatalf("reschedule skip did not reduce events: %d with skip vs %d without", firedSkip, firedAlways)
	}
	if always != skip {
		t.Fatalf("reschedule skip changed rendered metrics:\n--- always ---\n%s--- skip ---\n%s", always, skip)
	}
	t.Logf("dispatched events: %d without skip, %d with skip", firedAlways, firedSkip)
}
