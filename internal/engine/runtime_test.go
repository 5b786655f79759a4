package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/partition"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// partSink keeps each part's batches in emission order, skipping units
// without rows.
type partSink struct {
	mu    sync.Mutex
	parts map[int][]*tuple.SubTable
}

func (s *partSink) Emit(part int, st *tuple.SubTable, _ bool) error {
	if st == nil {
		return nil
	}
	s.mu.Lock()
	s.parts[part] = append(s.parts[part], st)
	s.mu.Unlock()
	return nil
}
func (s *partSink) Done(int)              {}
func (s *partSink) Discard(int)           {}
func (s *partSink) Free() *tuple.SubTable { return nil }

// TestRuntimeParity runs one join through the shared QES runtime in every
// shape it has — both engines, in memory and with every pair spilling,
// streamed to a sink, collected and count-only — and pins what the runtime
// promises regardless of shape: the same rows, each engine's output
// byte-identical at any budget, every charged build and probe both fed to
// the calibration layer and traced exactly once, and no scratch left
// behind.
func TestRuntimeParity(t *testing.T) {
	grid := partition.D(16, 16, 4)
	_, cl := genCluster(t, grid, partition.D(8, 8, 4), partition.D(4, 4, 4), 2, 2)

	var wantRows []string             // sorted row multiset, from the first run that has rows
	outBytes := map[string][]byte{}   // engine/mode → per-part output bytes, unbudgeted
	inMem := map[string]int64{}       // engine/mode → scratch bytes the unbudgeted run wrote
	probedInMem := map[string]int64{} // engine/mode → lookups the unbudgeted run made
	builtInMem := map[string]int64{}  // engine/mode → inserts the unbudgeted run made
	for _, e := range engines() {
		for _, budget := range []int64{0, 256} { // 256 B / (2·2 joiners) = 64 B a build side: every pair spills
			for _, mode := range []string{"sink", "collect", "count"} {
				name := fmt.Sprintf("%s/budget=%d/%s", e.Name(), budget, mode)
				rec := trace.New()
				req := fullJoinReq(mode == "collect")
				req.MemoryBudget, req.Trace = budget, rec
				sink := &partSink{parts: map[int][]*tuple.SubTable{}}
				if mode == "sink" {
					req.Sink = sink
				}
				res, err := engine.RunRequest(context.Background(), e, cl, req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Tuples != grid.Cells() {
					t.Errorf("%s: tuples = %d, want %d", name, res.Tuples, grid.Cells())
				}
				if res.UnitsJoined != res.UnitsTotal || res.UnitsTotal == 0 {
					t.Errorf("%s: joined %d of %d units", name, res.UnitsJoined, res.UnitsTotal)
				}
				if key := e.Name() + mode; budget == 0 {
					inMem[key] = res.Observed.SpillWriteBytes
					probedInMem[key] = res.Join.TuplesProbed
					builtInMem[key] = res.Join.TuplesBuilt
				} else {
					if res.Observed.SpillWriteBytes <= inMem[key] {
						t.Errorf("%s: spilled %d bytes, the unbudgeted run %d: the budget forced nothing out of core",
							name, res.Observed.SpillWriteBytes, inMem[key])
					}
					// A spilled pair probes each right row in one leaf only.
					if res.Join.TuplesProbed != probedInMem[key] {
						t.Errorf("%s: probed %d tuples, the unbudgeted run %d", name, res.Join.TuplesProbed, probedInMem[key])
					}
					// GH joins each bucket pair once at any budget and a
					// spilled leaf with no right rows builds nothing, so a
					// budget can lower GH's build count, never raise it.
					// (IJ rebuilds a spilled pair's left chunk per edge.)
					if e.Name() == "gh" && res.Join.TuplesBuilt > builtInMem[key] {
						t.Errorf("%s: built %d tuples, the unbudgeted run %d", name, res.Join.TuplesBuilt, builtInMem[key])
					}
				}

				// Every charge is observed and traced once (a span's item
				// count is the operations it charged).
				if res.Observed.BuildTuples != res.Join.TuplesBuilt || res.Observed.ProbeTuples != res.Join.TuplesProbed {
					t.Errorf("%s: observed build/probe %d/%d, join counted %d/%d", name,
						res.Observed.BuildTuples, res.Observed.ProbeTuples, res.Join.TuplesBuilt, res.Join.TuplesProbed)
				}
				var built, probed int64
				for _, ev := range rec.Events() {
					switch ev.Kind {
					case trace.KindBuild:
						built += ev.Items
					case trace.KindProbe:
						probed += ev.Items
					}
				}
				if built != res.Join.TuplesBuilt || probed != res.Join.TuplesProbed {
					t.Errorf("%s: spans cover %d built / %d probed, join counted %d / %d", name,
						built, probed, res.Join.TuplesBuilt, res.Join.TuplesProbed)
				}
				for j, cn := range cl.Compute {
					if names, _ := cn.Scratch.Store().List(); len(names) != 0 {
						t.Errorf("%s: joiner %d scratch not reaped: %v", name, j, names)
					}
				}

				// Rows, part by part in emission order.
				parts := make([][]*tuple.SubTable, len(cl.Compute))
				switch mode {
				case "sink":
					if res.Collected != nil {
						t.Errorf("%s: Collected set on a sink run", name)
					}
					for p := range parts {
						parts[p] = sink.parts[p]
					}
				case "collect":
					for p, st := range res.Collected {
						parts[p] = []*tuple.SubTable{st}
					}
				default:
					if res.Collected != nil {
						t.Errorf("%s: Collected set on a count-only run", name)
					}
					continue
				}
				var rows []string
				var enc bytes.Buffer
				for p, batches := range parts {
					for _, st := range batches {
						for r := 0; r < st.NumRows(); r++ {
							row := fmt.Sprint(st.Row(r, nil))
							rows = append(rows, row)
							fmt.Fprintln(&enc, p, row)
						}
					}
				}
				sort.Strings(rows)
				if wantRows == nil {
					wantRows = rows
				}
				if fmt.Sprint(rows) != fmt.Sprint(wantRows) {
					t.Errorf("%s: row multiset differs from the first run's", name)
				}
				if key := e.Name() + mode; budget == 0 {
					outBytes[key] = enc.Bytes()
				} else if !bytes.Equal(enc.Bytes(), outBytes[key]) {
					t.Errorf("%s: output differs from the unbudgeted run's", name)
				}
			}
		}
	}
	if int64(len(wantRows)) != grid.Cells() {
		t.Errorf("compared %d rows, want %d", len(wantRows), grid.Cells())
	}
}

// TestFinishFeedsThePricingEstimator pins the runtime's half of the
// decide→run→observe loop: a successful run feeds Inputs.PricedBy what it
// measured, once — every signal the run exercised and no other — while a
// failed run and a run with no estimator feed nothing.
func TestFinishFeedsThePricingEstimator(t *testing.T) {
	_, cl := genCluster(t, partition.D(16, 16, 4), partition.D(8, 8, 4), partition.D(4, 4, 4), 2, 2)
	for _, tc := range []struct {
		name   string
		eng    engine.Engine
		budget int64
		spills bool
	}{
		{"ij", ij.New(), 0, false},
		{"ij/budget=256", ij.New(), 256, true}, // every pair's build side round-trips through scratch
		{"gh", gh.New(), 0, true},
	} {
		est := costmodel.NewEstimator()
		req := fullJoinReq(false)
		req.MemoryBudget = tc.budget
		in, err := engine.Resolve(cl.Catalog, req)
		if err != nil {
			t.Fatal(err)
		}
		in.PricedBy = est

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := tc.eng.Run(cancelled, cl, in); err == nil {
			t.Fatalf("%s: cancelled run succeeded", tc.name)
		}
		if c := est.Snapshot(); c.AlphaSamples+c.FetchSamples+c.SpillSamples != 0 {
			t.Errorf("%s: a failed run fed the estimator: %s", tc.name, c)
		}

		res, err := tc.eng.Run(context.Background(), cl, in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := est.Snapshot()
		wantSpill := int64(0)
		if tc.spills {
			wantSpill = 1
		}
		if c.AlphaSamples != 1 || c.FetchSamples != 1 || c.SpillSamples != wantSpill {
			t.Errorf("%s: samples α=%d fetch=%d spill=%d, want 1 1 %d", tc.name, c.AlphaSamples, c.FetchSamples, c.SpillSamples, wantSpill)
		}
		// One sample means the estimate is the run's own ratio.
		if want := res.Observed.BuildSeconds / float64(res.Observed.BuildTuples); c.AlphaBuild != want {
			t.Errorf("%s: α_build = %g, the run measured %g", tc.name, c.AlphaBuild, want)
		}
	}
}
