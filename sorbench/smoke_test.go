package main

// Smoke test: every workload at a tiny size, untraced and traced. It
// checks that each metric BENCHMARK.json names is printed with its unit,
// that the correctness checks pass, and that one seed always generates
// byte-identical inputs.
//
//	cd sorbench && go test -count=1 .

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the deployed shape's child
// process, as the sorbench binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			os.Stderr.WriteString("sorbench serve: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declared loads the metric lists BENCHMARK.json names.
func declared(t *testing.T) (e2e, layer []struct{ name, unit string }) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, struct{ name, unit string }{m.Name, m.Unit})
	}
	return e2e, layer
}

func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range []string{"ingest", "rank", "join_storm"} {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 7, seconds: 2, tiny: true, work: t.TempDir()}
			res, err := untracedMain(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, e2e, true)

			o.trace = true
			res, err = tracedMain(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, layer, false)
		})
	}
}

// checkResult asserts a passing run that printed exactly the named
// metrics with their units (end-to-end metrics must also be nonzero).
func checkResult(t *testing.T, res result, want []struct{ name, unit string }, nonzero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not clean: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		case nonzero && got.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	digest := func(w string, seed int64) string {
		ih := newInputHash()
		workloadFor(w).inputs(seed, tinySize(), ih)
		return ih.sum()
	}
	for _, w := range []string{"ingest", "rank", "join_storm"} {
		a, b, c := digest(w, 5), digest(w, 5), digest(w, 6)
		if a != b {
			t.Errorf("%s: seed 5 generated different inputs: %s vs %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 generated identical inputs", w)
		}
	}
}

func TestEpochRegression(t *testing.T) {
	// Two reads in flight may be served out of order; only a read sent
	// after a newer epoch was received must not see an older one.
	inFlight := []epochObs{{sent: 0, recv: 10, epoch: 2}, {sent: 1, recv: 12, epoch: 1}}
	if _, _, ok := epochRegression(inFlight); !ok {
		t.Error("overlapping reads flagged as a regression")
	}
	after := []epochObs{{sent: 0, recv: 10, epoch: 2}, {sent: 11, recv: 12, epoch: 1}}
	before, got, ok := epochRegression(after)
	if ok || before != 2 || got != 1 {
		t.Errorf("epochRegression = %d, %d, %v; want 2, 1, false", before, got, ok)
	}
}
