package harness

import (
	"fmt"

	"slate/workloads"
)

// HeaviestPairIndex returns the index (into workloads.Pairs()) of the Fig. 7
// pairing with the most simulation work. "Work" is estimated statically from
// the kernel specs: event count scales with the launch count of the ~30s
// loop, which is the loop target over the roofline-estimated solo time. The
// estimate is a pure function of the specs and the device, so every
// invocation benches the same cell.
func (h *Harness) HeaviestPairIndex() int {
	est := func(a *workloads.App) float64 {
		k := a.Kernel
		computeSec := k.TotalFLOPs() / h.Dev.PeakFLOPS()
		memSec := k.TotalL2Bytes() / h.Dev.DRAM.EffectivePeak()
		solo := computeSec
		if memSec > solo {
			solo = memSec
		}
		if solo <= 0 {
			return 1
		}
		return h.Loop / solo // ≈ launches in the loop
	}
	best, bestWork := 0, -1.0
	for p, pair := range workloads.Pairs() {
		if w := est(pair[0]) + est(pair[1]); w > bestWork {
			best, bestWork = p, w
		}
	}
	return best
}

// SimBenchCell runs one Fig. 7 pairing end to end — solo calibration plus
// the pair under all three schedulers, one serial simulation after another —
// and returns the rendered row.
func (h *Harness) SimBenchCell(p int) (string, error) {
	pairs := workloads.Pairs()
	if p < 0 || p >= len(pairs) {
		return "", fmt.Errorf("harness: pair index %d out of range [0,%d)", p, len(pairs))
	}
	pair := pairs[p]
	name := pair[0].Code + "-" + pair[1].Code
	jobs, err := h.jobsFor([]*workloads.App{pair[0], pair[1]})
	if err != nil {
		return "", err
	}
	var mean [3]float64
	for _, s := range Scheds() {
		rs, err := h.runJobs(s, jobs)
		if err != nil {
			return "", fmt.Errorf("pair %s: %w", name, err)
		}
		mean[s] = meanAppSec(rs)
	}
	out := fmt.Sprintf("Fig. 7 cell — pair %s\n", name)
	var rows [][]string
	for _, s := range Scheds() {
		rows = append(rows, []string{
			s.String(), f3(mean[s]), f3(mean[s] / mean[CUDA]),
		})
	}
	out += table([]string{"Sched", "MeanSec", "NormVsCUDA"}, rows)
	out += fmt.Sprintf("Slate vs MPS: %s, Slate vs CUDA: %s\n",
		pct(mean[MPS]/mean[Slate]-1), pct(mean[CUDA]/mean[Slate]-1))
	return out, nil
}
