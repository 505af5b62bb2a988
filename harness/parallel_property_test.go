package harness

import (
	"fmt"
	"testing"
)

// experimentOutputs renders every experiment the harness reproduces —
// figures, tables, and extension studies — for one fresh harness, folding
// each artifact's full rendered table (and CSV where one exists) into a
// single string so byte comparison covers every reported digit.
func experimentOutputs(t *testing.T, cfg Config) map[string]string {
	t.Helper()
	h := New(cfg)
	out := map[string]string{}
	add := func(name string, render func() (string, error)) {
		s, err := render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = s
	}
	add("fig1", func() (string, error) {
		r, err := h.Fig1()
		if err != nil {
			return "", err
		}
		return r.Render() + r.CSV(), nil
	})
	add("fig5", func() (string, error) {
		r, err := h.Fig5()
		if err != nil {
			return "", err
		}
		return r.Render() + r.CSV(), nil
	})
	add("fig6", func() (string, error) {
		r, err := h.Fig6()
		if err != nil {
			return "", err
		}
		return r.Render() + r.CSV(), nil
	})
	add("fig7", func() (string, error) {
		r, err := h.Fig7()
		if err != nil {
			return "", err
		}
		return r.Render() + r.CSV(), nil
	})
	add("tableII", func() (string, error) {
		r, err := h.TableII()
		if err != nil {
			return "", err
		}
		return r.Render() + r.CSV(), nil
	})
	add("tableIII", func() (string, error) {
		r, err := h.TableIII()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("tableIV", func() (string, error) {
		r, err := h.TableIV()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("sensitivity", func() (string, error) {
		r, err := h.Sensitivity()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("ablation", func() (string, error) {
		r, err := h.Ablations()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("triples", func() (string, error) {
		r, err := h.Triples()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("extpairs", func() (string, error) {
		r, err := h.ExtendedPairs()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("cloudtrace", func() (string, error) {
		r, err := h.CloudTrace(CloudTraceConfig{Jobs: 5, MeanInterArrivalSec: 0.3, Seed: cfg.Seed})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("staticmerge", func() (string, error) {
		r, err := h.StaticMerge()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	add("fig7-cell", func() (string, error) {
		return h.SimBenchCell(h.HeaviestPairIndex())
	})
	return out
}

// TestParallelExecutionBitIdentical is DESIGN.md §15's contract over the
// whole evaluation: every experiment, rendered from a serial harness
// (Parallel=1) and from one running its cells on a four-wide pool
// (Parallel=4), must agree on every output byte, at two seeds. Run under
// -race in CI.
func TestParallelExecutionBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweeps in -short mode")
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial := experimentOutputs(t, Config{LoopSeconds: 0.35, Seed: seed, Parallel: 1})
			parallel := experimentOutputs(t, Config{LoopSeconds: 0.35, Seed: seed, Parallel: 4})
			for name, want := range serial {
				got, ok := parallel[name]
				if !ok {
					t.Fatalf("%s missing from parallel outputs", name)
				}
				if got != want {
					t.Errorf("%s diverged between serial and parallel execution at seed %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
						name, seed, want, got)
				}
			}
		})
	}
}
