package ij_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/ij"
	"sciview/internal/ingest"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// The tests here append through internal/ingest, which imports the planner
// and so this package: they live in the external test package.

func req() engine.Request {
	return engine.Request{LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"}}
}

// rowBytes is a collected result as bytes, part by part in release order,
// for byte-identity checks.
func rowBytes(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, st := range res.Collected {
		for r := 0; r < st.NumRows(); r++ {
			for c := 0; c < st.Schema.NumAttrs(); c++ {
				if err := binary.Write(&buf, binary.LittleEndian, st.Value(r, c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return buf.Bytes()
}

// cpuTaken sums the compute nodes' modeled CPU operations.
func cpuTaken(cl *cluster.Cluster) int64 {
	var cpu int64
	for _, cn := range cl.Compute {
		cpu += cn.CPU.Taken()
	}
	return cpu
}

// run is what one statement did: its result and what it added to the
// cache's demand counters and the modeled CPU, with its trace spans
// counted — builds, probes that looked rows up, and gathers (probe spans
// of 0 operations).
type run struct {
	res                     *engine.Result
	demand, cpu             int64
	builds, probes, gathers int
}

// sharedRun runs r on cl in shared mode, collecting and tracing.
func sharedRun(t *testing.T, cl *cluster.Cluster, r engine.Request) run {
	t.Helper()
	r.Shared, r.Collect = true, true
	rec := trace.New()
	r.Trace = rec
	cpu0 := cpuTaken(cl)
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, r)
	if err != nil {
		t.Fatal(err)
	}
	out := run{res: res, demand: res.Cache.Hits + res.Cache.Misses, cpu: cpuTaken(cl) - cpu0}
	out.builds, out.probes, out.gathers = spans(rec)
	return out
}

// spans counts a trace's build spans, its probe spans that looked rows up
// and its gather spans.
func spans(rec *trace.Recorder) (builds, probes, gathers int) {
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindBuild:
			builds++
		case e.Kind == trace.KindProbe && e.Items > 0:
			probes++
		case e.Kind == trace.KindProbe:
			gathers++
		}
	}
	return builds, probes, gathers
}

// exclusiveRows runs r exclusively on cl — the caches reset, nothing kept
// — and returns its rows.
func exclusiveRows(t *testing.T, cl *cluster.Cluster, r engine.Request) []byte {
	t.Helper()
	r.Collect = true
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, r)
	if err != nil {
		t.Fatal(err)
	}
	return rowBytes(t, res)
}

// stepCluster is a two-node colenc cluster over a dataset with one
// withheld step slab, and the slab.
func stepCluster(t *testing.T) (*cluster.Cluster, *oilres.Dataset, oilres.Config, []oilres.StepChunk) {
	t.Helper()
	cfg := oilres.Config{
		Grid:     partition.D(16, 16, 12),
		LeftPart: partition.D(8, 8, 2), RightPart: partition.D(4, 4, 4),
		StorageNodes: 2, Seed: 7,
	}
	ds, steps, err := oilres.GenerateSteps(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 32 << 20, Wire: "colenc", CPUSecPerOp: 1e-12,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl, ds, cfg, steps[0]
}

// TestWarmStatementGathersCachedPairs: a shared statement re-run on a warm
// cluster finds every edge's match pairs in its node cache, so it neither
// builds nor probes — nothing counted, charged to the modeled CPU, fed to
// the calibration or traced as work; each edge leaves one 0-operation
// probe span — and gathers byte-identical rows with the cold run's match
// count. Its frame demand is the first run's: two cache lookups per edge.
// After a step slab is appended, only the new edges probe and only the new
// left chunks are built, and the rows equal an exclusive run's, which
// builds and probes every edge afresh and keeps nothing.
func TestWarmStatementGathersCachedPairs(t *testing.T) {
	cl, ds, cfg, step := stepCluster(t)
	base := ds.Config.Grid.Cells()

	cold := sharedRun(t, cl, req())
	warm := sharedRun(t, cl, req())
	if cold.res.Tuples != base || warm.res.Tuples != base {
		t.Fatalf("tuples %d then %d, want %d", cold.res.Tuples, warm.res.Tuples, base)
	}
	edges := int(cold.res.UnitsJoined)
	if cold.res.Join.TuplesBuilt != base || cold.builds == 0 || cold.res.Observed.BuildTuples != base {
		t.Errorf("cold run: built %d (observed %d, %d spans), want %d", cold.res.Join.TuplesBuilt, cold.res.Observed.BuildTuples, cold.builds, base)
	}
	if cold.probes != edges || cold.gathers != 0 {
		t.Errorf("cold run: %d probes and %d gathers over %d edges, want a probe per edge", cold.probes, cold.gathers, edges)
	}
	if warm.res.Join.TuplesBuilt != 0 || warm.builds != 0 || warm.res.Observed.BuildTuples != 0 || warm.res.Observed.BuildSeconds != 0 {
		t.Errorf("warm run: built %d (observed %d in %gs, %d spans), want nothing", warm.res.Join.TuplesBuilt, warm.res.Observed.BuildTuples, warm.res.Observed.BuildSeconds, warm.builds)
	}
	if warm.res.Join.TuplesProbed != 0 || warm.probes != 0 || warm.res.Observed.ProbeTuples != 0 || warm.res.Observed.ProbeSeconds != 0 {
		t.Errorf("warm run: probed %d (observed %d in %gs, %d spans), want nothing", warm.res.Join.TuplesProbed, warm.res.Observed.ProbeTuples, warm.res.Observed.ProbeSeconds, warm.probes)
	}
	if warm.gathers != edges {
		t.Errorf("warm run: %d gather spans, want one per edge (%d)", warm.gathers, edges)
	}
	if warm.res.Join.Matches != cold.res.Join.Matches {
		t.Errorf("warm run: %d matches, cold run %d", warm.res.Join.Matches, cold.res.Join.Matches)
	}
	for _, r := range []struct {
		name string
		run
	}{{"cold", cold}, {"warm", warm}} {
		if r.demand != 2*r.res.UnitsJoined {
			t.Errorf("%s run: %d cache lookups for %d edges, want two per edge", r.name, r.demand, r.res.UnitsJoined)
		}
		if want := r.res.Join.TuplesBuilt + r.res.Join.TuplesProbed; r.cpu != want {
			t.Errorf("%s run: %d modeled CPU ops, want built + probed = %d", r.name, r.cpu, want)
		}
	}
	if !bytes.Equal(rowBytes(t, cold.res), rowBytes(t, warm.res)) {
		t.Error("warm run's rows differ from the cold run's")
	}
	for _, cn := range cl.Compute {
		if b := cn.Cache.Bytes(); b > cl.Config.CacheBytes {
			t.Errorf("compute-%d holds %d bytes, over its %d", cn.ID, b, cl.Config.CacheBytes)
		}
	}
	if !bytes.Equal(rowBytes(t, warm.res), exclusiveRows(t, cl, req())) {
		t.Error("warm run's rows differ from an exclusive run's")
	}
	warm = sharedRun(t, cl, req()) // warm again after the exclusive run's reset

	ing, err := ingest.New(ingest.Config{Catalog: ds.Catalog, Stores: ds.Stores, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Append(ingest.FromStepChunks(0, step)); err != nil {
		t.Fatal(err)
	}
	grown := sharedRun(t, cl, req())
	if want := cfg.Grid.Cells(); grown.res.Tuples != want {
		t.Fatalf("after the append: %d tuples, want %d", grown.res.Tuples, want)
	}
	if want := cfg.Grid.Cells() - base; grown.res.Join.TuplesBuilt != want {
		t.Errorf("after the append: built %d tuples, want the new left chunks' %d", grown.res.Join.TuplesBuilt, want)
	}
	if added := int(grown.res.UnitsJoined) - edges; grown.probes != added || grown.gathers != edges {
		t.Errorf("after the append: %d probes and %d gathers, want the %d new edges probed and the %d old ones gathered", grown.probes, grown.gathers, added, edges)
	}
	fresh := exclusiveRows(t, cl, req())
	if !bytes.Equal(rowBytes(t, grown.res), fresh) {
		t.Error("rows after the append differ from a run that builds every table")
	}
	// The exclusive run reset the caches and kept nothing for later.
	if after := sharedRun(t, cl, req()); after.res.Join.TuplesBuilt != cfg.Grid.Cells() || after.gathers != 0 {
		t.Errorf("shared run after an exclusive one built %d and gathered %d edges, want every table (%d) and no gather: an exclusive run keeps none", after.res.Join.TuplesBuilt, after.gathers, cfg.Grid.Cells())
	}
}

// stopSink streams a run and fails every emit after the first n
// batches, as a LIMIT that has its rows cuts a streaming join short.
type stopSink struct {
	mu   sync.Mutex
	n    int
	seen int
}

var errStop = errors.New("limit reached")

func (s *stopSink) Emit(part int, batch *tuple.SubTable, last bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen++; s.seen > s.n {
		return errStop
	}
	return nil
}
func (s *stopSink) Done(int)              {}
func (s *stopSink) Discard(int)           {}
func (s *stopSink) Free() *tuple.SubTable { return nil }

// TestLimitCutRunLeavesUnjoinedEdges: a first statement cut short keeps
// the pairs of the edges it probed, and only those. Its re-run gathers
// them and probes the rest, and its rows are an exclusive run's.
func TestLimitCutRunLeavesUnjoinedEdges(t *testing.T) {
	cl, _, _, _ := stepCluster(t)
	r := req()
	r.Shared, r.Sink, r.Progress = true, &stopSink{n: 3}, &engine.Progress{}
	if _, err := engine.RunRequest(context.Background(), ij.New(), cl, r); !errors.Is(err, errStop) {
		t.Fatalf("cut run: %v, want %v", err, errStop)
	}
	cut, total := int(r.Progress.Joined.Load()), int(r.Progress.Total.Load())
	if cut == 0 || cut >= total {
		t.Fatalf("cut run joined %d of %d edges: the test does not cut", cut, total)
	}
	rest := sharedRun(t, cl, req())
	if rest.gathers != cut || rest.probes != total-cut {
		t.Errorf("re-run: %d gathers and %d probes, want the cut run's %d edges gathered and the other %d probed", rest.gathers, rest.probes, cut, total-cut)
	}
	if !bytes.Equal(rowBytes(t, rest.res), exclusiveRows(t, cl, req())) {
		t.Error("re-run's rows differ from an exclusive run's")
	}
}

// resident is what one compute node's cache holds of a statement: its
// kept left rows, its left and right frames and its edges' match pairs.
type resident struct {
	rows, lefts, rights, pairs []cluster.FetchKey
}

// entries returns, per compute node, the cache keys of a statement r on
// cl that are resident there.
func entries(t *testing.T, cl *cluster.Cluster, r engine.Request) []resident {
	t.Helper()
	in, err := engine.Resolve(cl.Catalog, r)
	if err != nil {
		t.Fatal(err)
	}
	lsig := cluster.Signature(&in.LeftFilter, in.Project)
	rsig := cluster.Signature(&in.RightFilter, in.Project)
	join := cluster.JoinSig(r.JoinAttrs)
	out := make([]resident, len(cl.Compute))
	for i, cn := range cl.Compute {
		has := func(k cluster.FetchKey) bool { _, ok := cn.Cache.Peek(k); return ok }
		for _, rd := range in.RightDescs {
			if k := (cluster.FetchKey{ID: rd.ID(), Sig: rsig}); has(k) {
				out[i].rights = append(out[i].rights, k)
			}
		}
		for _, ld := range in.LeftDescs {
			if k := (cluster.FetchKey{ID: ld.ID(), Sig: lsig}); has(k) {
				out[i].lefts = append(out[i].lefts, k)
			}
			rk := cluster.FetchKey{ID: ld.ID(), Sig: lsig, Join: join}
			if has(rk) {
				out[i].rows = append(out[i].rows, rk)
			}
			for _, rd := range in.RightDescs {
				if pk := rk.PairKey(cluster.FetchKey{ID: rd.ID(), Sig: rsig}); has(pk) {
					out[i].pairs = append(out[i].pairs, pk)
				}
			}
		}
	}
	return out
}

// drop removes key from cn's cache: a value larger than the whole cache
// replaces the entry and is itself not kept.
func drop(cl *cluster.Cluster, node int, key cluster.FetchKey) {
	cl.Compute[node].Cache.Put(key, nil, cl.Config.CacheBytes+1)
}

// TestPairsOutliveTheirLeftRows: an edge whose pairs are cached gathers
// byte-identical rows when its left's kept rows have been dropped — the
// left carrier is decoded, nothing is built — and when its right frame has
// been evicted and fetched again.
func TestPairsOutliveTheirLeftRows(t *testing.T) {
	cl, _, _, _ := stepCluster(t)
	cold := sharedRun(t, cl, req())
	kept, dropped := 0, 0
	for i, res := range entries(t, cl, req()) {
		kept += len(res.pairs)
		for _, k := range res.rows {
			drop(cl, i, k)
			dropped++
		}
		for j, k := range res.rights {
			if j%2 == 0 {
				drop(cl, i, k)
			}
		}
	}
	if kept != int(cold.res.UnitsJoined) || dropped == 0 {
		t.Fatalf("%d pair entries kept for %d edges, %d left rows dropped", kept, cold.res.UnitsJoined, dropped)
	}
	warm := sharedRun(t, cl, req())
	if warm.res.Join.TuplesBuilt != 0 || warm.res.Join.TuplesProbed != 0 || warm.gathers != int(cold.res.UnitsJoined) {
		t.Errorf("built %d, probed %d, gathered %d edges; want every edge gathered (%d) and nothing built or probed",
			warm.res.Join.TuplesBuilt, warm.res.Join.TuplesProbed, warm.gathers, cold.res.UnitsJoined)
	}
	if warm.res.Cache.Misses == cold.res.Cache.Misses {
		t.Error("no dropped frame was fetched again: the test does not exercise a refetch")
	}
	if !bytes.Equal(rowBytes(t, cold.res), rowBytes(t, warm.res)) {
		t.Error("rows gathered without the kept left rows differ from the cold run's")
	}
}

// TestPairsCountMismatchProbes: cached pairs that do not index the
// carriers' row counts — forged here; chunk ids are never reused, so it
// cannot otherwise happen — send their edge down the probe path, and the
// rows stay exact.
func TestPairsCountMismatchProbes(t *testing.T) {
	cl, _, _, _ := stepCluster(t)
	cold := sharedRun(t, cl, req())
	res := entries(t, cl, req())
	forged := 0
	for i, cn := range cl.Compute {
		for j, k := range res[i].pairs {
			if j%3 != 0 {
				continue
			}
			f, _ := cn.Cache.Peek(k)
			if j%2 == 0 {
				f.Pairs().RightRows++
			} else {
				f.Pairs().LeftRows--
			}
			forged++
		}
	}
	warm := sharedRun(t, cl, req())
	if warm.probes != forged || warm.gathers != int(cold.res.UnitsJoined)-forged {
		t.Errorf("%d probes and %d gathers, want the %d forged edges probed and the other %d gathered",
			warm.probes, warm.gathers, forged, int(cold.res.UnitsJoined)-forged)
	}
	if !bytes.Equal(rowBytes(t, cold.res), rowBytes(t, warm.res)) {
		t.Error("rows differ from the cold run's")
	}
}

// rowMajorCluster is a two-node cluster on the row-major wire.
func rowMajorCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(32, 32, 8), LeftPart: partition.D(8, 8, 8), RightPart: partition.D(4, 4, 4),
		StorageNodes: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{StorageNodes: 2, ComputeNodes: 2, CacheBytes: 32 << 20}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestRowMajorKeepsNoRows: a row-major frame already is its rows, so a
// warm shared statement on the row-major wire keeps none. Its node caches
// hold its frames and its edges' pairs, and nothing else.
func TestRowMajorKeepsNoRows(t *testing.T) {
	cl := rowMajorCluster(t)
	sharedRun(t, cl, req())
	warm := sharedRun(t, cl, req())
	edges := int(warm.res.UnitsJoined)
	if warm.gathers != edges {
		t.Fatalf("%d gathers over %d edges: the statement is not warm", warm.gathers, edges)
	}
	pairs := 0
	for i, res := range entries(t, cl, req()) {
		if len(res.rows) != 0 {
			t.Errorf("compute-%d keeps %d lefts' rows, want none", i, len(res.rows))
		}
		if held, want := cl.Compute[i].Cache.Len(), len(res.lefts)+len(res.rights)+len(res.pairs); held != want {
			t.Errorf("compute-%d holds %d entries, want its %d frames and pairs only", i, held, want)
		}
		pairs += len(res.pairs)
	}
	if pairs != edges {
		t.Errorf("%d pair entries for %d edges", pairs, edges)
	}
}

// TestConcurrentStatementsShareCachedPairs: two shared statements run at
// once on a warm cluster gather from the same cached pairs, each with its
// own scratch and decode buffer (run it under -race), and both return the
// warm-up's rows. The frames are row-major, so the gathers read the cached
// frames' own columns.
func TestConcurrentStatementsShareCachedPairs(t *testing.T) {
	cl := rowMajorCluster(t)
	want := rowBytes(t, sharedRun(t, cl, req()).res)
	var wg sync.WaitGroup
	results := make([]*engine.Result, 2)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := req()
			r.Shared, r.Collect = true, true
			res, err := engine.RunRequest(context.Background(), ij.New(), cl, r)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			continue
		}
		if res.Join.TuplesBuilt != 0 || res.Join.TuplesProbed != 0 {
			t.Errorf("statement %d built %d and probed %d tuples, want every edge's pairs from the cache", i, res.Join.TuplesBuilt, res.Join.TuplesProbed)
		}
		if !bytes.Equal(rowBytes(t, res), want) {
			t.Errorf("statement %d: rows differ from the warm-up's", i)
		}
	}
}
