package main

import (
	"sort"
	"testing"
	"time"
)

// TestQuick runs every workload end to end with a one-second window, so
// `go test` covers the harness: the stack comes up, every result matches
// its reference, and each mode emits exactly the metrics BENCHMARK.json
// declares for it.
func TestQuick(t *testing.T) {
	mf, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.EndToEnd) == 0 || len(mf.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	start := time.Now()
	for _, traced := range []bool{false, true} {
		declared := mf.EndToEnd
		if traced {
			declared = mf.PerLayer
		}
		for i := range workloads {
			w := &workloads[i]
			if traced && w.name != "warm_join" && testing.Short() {
				continue
			}
			res, err := run(w, options{seed: 2006, seconds: 1, quick: true, trace: traced, results: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var want, got []string
			for _, mm := range declared {
				want = append(want, mm.Name+" "+mm.Unit)
			}
			for name, mv := range res.Metrics {
				got = append(got, name+" "+mv.Unit)
			}
			sort.Strings(want)
			sort.Strings(got)
			if len(want) != len(got) {
				t.Errorf("%s (trace=%v): %d metrics emitted, %d declared\nemitted  %v\ndeclared %v", w.name, traced, len(got), len(want), got, want)
				continue
			}
			for k := range want {
				if want[k] != got[k] {
					t.Errorf("%s (trace=%v): emitted %q where BENCHMARK.json declares %q", w.name, traced, got[k], want[k])
				}
			}
		}
	}
	t.Logf("all workloads, both modes: %v", time.Since(start).Round(time.Millisecond))
}
