package main

import (
	"bytes"
	"os"
	"testing"

	"slate/harness"
	"slate/internal/engine"
)

// fig7Fixture is a Fig. 7 result with the paper's shapes.
func fig7Fixture() *harness.Fig7Result {
	r := &harness.Fig7Result{SlateVsMPS: 0.15, BestPair: "BS-RG", BestGain: 0.38, WorstPair: "BS-BS", WorstGain: -0.05}
	for i := 0; i < 15; i++ {
		r.Rows = append(r.Rows, harness.Fig7Row{Pair: "GS-MM", MeanSec: [3]float64{1, 1, 0.9}})
	}
	r.Rows[0] = harness.Fig7Row{Pair: "BS-RG", MeanSec: [3]float64{1, 1, 0.72}}
	return r
}

func fixtureRun() *suiteRun {
	r := fig7Fixture()
	return &suiteRun{fig7: r, exps: []experiment{{"fig7", "fixture render"}}}
}

func TestShapesAcceptThePaperAndRejectARegression(t *testing.T) {
	for _, err := range shapeChecks(fixtureRun()) {
		if err != nil {
			t.Errorf("paper-shaped Fig. 7 failed: %v", err)
		}
	}
	bad := fixtureRun()
	bad.fig7.Rows[0].MeanSec[harness.Slate] = 1.2 // BS-RG now loses to MPS
	failed := 0
	for _, err := range shapeChecks(bad) {
		if err != nil {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d shape checks failed, want exactly the RG-pairing gain", failed)
	}
}

// A stored digest for (workload, model version, seed) is the one check; a
// seed or model version without one falls back to every shape check.
func TestDigestOrShapeSelection(t *testing.T) {
	const wl = "fig7-paperloop"
	s := fixtureRun()
	key := func(seed int64) string { return digestKey(wl, engine.ModelVersion, seed) }
	storedDigests[key(4242)] = s.digest()
	storedDigests[key(4243)] = "0000000000000000000000000000000000000000000000000000000000000000"
	defer delete(storedDigests, key(4242))
	defer delete(storedDigests, key(4243))

	var match, mismatch, fallback ledger
	checkRepro(&match, wl, 4242, s)
	checkRepro(&mismatch, wl, 4243, s)
	checkRepro(&fallback, wl, 4244, s)
	if a, f, _ := match.counts(); a != 1 || f != 0 {
		t.Errorf("matching digest: %d attempted %d failed, want 1/0", a, f)
	}
	if a, f, _ := mismatch.counts(); a != 1 || f != 1 {
		t.Errorf("mismatched digest: %d attempted %d failed, want 1/1", a, f)
	}
	if a, f, _ := fallback.counts(); a != len(shapeChecks(s)) || f != 0 {
		t.Errorf("no stored digest: %d attempted %d failed, want all %d shape checks passing", a, f, len(shapeChecks(s)))
	}
	if _, ok := storedDigest(wl, engine.ModelVersion+1, 4242); ok {
		t.Error("a model-version bump must not reuse the old version's digest")
	}
}

// BENCHMARK.json is generated from this package's tables; the committed
// copy must match them.
func TestBenchmarkJSONInSync(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Error("BENCHMARK.json is stale: run `bash perfbench/run.sh --write-spec` from the repository root")
	}
}
