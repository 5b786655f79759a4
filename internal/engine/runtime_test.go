package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"sciview/internal/engine"
	"sciview/internal/partition"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// partSink keeps each part's batches in emission order.
type partSink struct {
	mu    sync.Mutex
	parts map[int][]*tuple.SubTable
}

func (s *partSink) Emit(part int, st *tuple.SubTable) error {
	s.mu.Lock()
	s.parts[part] = append(s.parts[part], st)
	s.mu.Unlock()
	return nil
}
func (s *partSink) Done(int)    {}
func (s *partSink) Discard(int) {}

// TestRuntimeParity runs one join through the shared QES runtime in every
// shape it has — both engines, in memory and with every pair spilling,
// streamed to a sink, collected and count-only — and pins what the runtime
// promises regardless of shape: the same rows, IJ output byte-identical at
// any budget, every charged build and probe both fed to the calibration
// layer and traced exactly once, and no scratch left behind.
func TestRuntimeParity(t *testing.T) {
	grid := partition.D(16, 16, 4)
	_, cl := genCluster(t, grid, partition.D(8, 8, 4), partition.D(4, 4, 4), 2, 2)

	var wantRows []string          // sorted row multiset, from the first run that has rows
	ijBytes := map[string][]byte{} // output mode → IJ's per-part output bytes, unbudgeted
	inMem := map[string]int64{}    // engine/mode → scratch bytes the unbudgeted run wrote
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
				} else if res.Observed.SpillWriteBytes <= inMem[key] {
					t.Errorf("%s: spilled %d bytes, the unbudgeted run %d: the budget forced nothing out of core",
						name, res.Observed.SpillWriteBytes, inMem[key])
				}

				// Every charge is observed and traced once (WorkFactor 1:
				// a span's item count is the operations it charged).
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
				if e.Name() == "ij" {
					if budget == 0 {
						ijBytes[mode] = enc.Bytes()
					} else if !bytes.Equal(enc.Bytes(), ijBytes[mode]) {
						t.Errorf("%s: output differs from the unbudgeted run's", name)
					}
				}
			}
		}
	}
	if int64(len(wantRows)) != grid.Cells() {
		t.Errorf("compared %d rows, want %d", len(wantRows), grid.Cells())
	}
}
