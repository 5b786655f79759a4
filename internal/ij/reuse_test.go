package ij_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/ij"
	"sciview/internal/ingest"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/trace"
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

// cacheTotals sums the compute nodes' cache counters and their modeled
// CPU operations.
func cacheTotals(cl *cluster.Cluster) (cache.Stats, int64) {
	var s cache.Stats
	var cpu int64
	for _, cn := range cl.Compute {
		c := cn.Cache.Stats()
		s.Hits += c.Hits
		s.Misses += c.Misses
		s.Evictions += c.Evictions
		cpu += cn.CPU.Taken()
	}
	return s, cpu
}

// sharedRun runs r on cl in shared mode, collecting and tracing, and
// returns the result with what this run added to the cache's demand
// counters and the modeled CPU, and its build spans.
func sharedRun(t *testing.T, cl *cluster.Cluster, r engine.Request) (res *engine.Result, demand, cpu int64, builds int) {
	t.Helper()
	r.Shared, r.Collect = true, true
	rec := trace.New()
	r.Trace = rec
	s0, cpu0 := cacheTotals(cl)
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, r)
	if err != nil {
		t.Fatal(err)
	}
	s1, cpu1 := cacheTotals(cl)
	for _, e := range rec.Events() {
		if e.Kind == trace.KindBuild {
			builds++
		}
	}
	return res, s1.Hits + s1.Misses - s0.Hits - s0.Misses, cpu1 - cpu0, builds
}

// TestWarmStatementProbesCachedTables: a shared statement re-run on a warm
// cluster finds every left hash table in its node cache, so it builds
// nothing — no build counted, charged to the modeled CPU, fed to the
// calibration or traced — and returns byte-identical rows. Its frame demand
// is the first run's: two cache lookups per edge. After a step slab is
// appended, only the new left chunks are built, and the rows equal an
// exclusive run's, which builds every table afresh and keeps none.
func TestWarmStatementProbesCachedTables(t *testing.T) {
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
	base := ds.Config.Grid.Cells()

	cold, coldDemand, coldCPU, coldBuilds := sharedRun(t, cl, req())
	warm, warmDemand, warmCPU, warmBuilds := sharedRun(t, cl, req())
	if cold.Tuples != base || warm.Tuples != base {
		t.Fatalf("tuples %d then %d, want %d", cold.Tuples, warm.Tuples, base)
	}
	if cold.Join.TuplesBuilt != base || coldBuilds == 0 || cold.Observed.BuildTuples != base {
		t.Errorf("cold run: built %d (observed %d, %d spans), want %d", cold.Join.TuplesBuilt, cold.Observed.BuildTuples, coldBuilds, base)
	}
	if warm.Join.TuplesBuilt != 0 || warmBuilds != 0 || warm.Observed.BuildTuples != 0 || warm.Observed.BuildSeconds != 0 {
		t.Errorf("warm run: built %d (observed %d in %gs, %d spans), want nothing", warm.Join.TuplesBuilt, warm.Observed.BuildTuples, warm.Observed.BuildSeconds, warmBuilds)
	}
	for _, run := range []struct {
		name   string
		res    *engine.Result
		demand int64
		cpu    int64
	}{{"cold", cold, coldDemand, coldCPU}, {"warm", warm, warmDemand, warmCPU}} {
		if run.demand != 2*run.res.UnitsJoined {
			t.Errorf("%s run: %d cache lookups for %d edges, want two per edge", run.name, run.demand, run.res.UnitsJoined)
		}
		if want := run.res.Join.TuplesBuilt + run.res.Join.TuplesProbed; run.cpu != want {
			t.Errorf("%s run: %d modeled CPU ops, want built + probed = %d", run.name, run.cpu, want)
		}
	}
	if !bytes.Equal(rowBytes(t, cold), rowBytes(t, warm)) {
		t.Error("warm run's rows differ from the cold run's")
	}
	for _, cn := range cl.Compute {
		if b := cn.Cache.Bytes(); b > cl.Config.CacheBytes {
			t.Errorf("compute-%d holds %d bytes, over its %d", cn.ID, b, cl.Config.CacheBytes)
		}
	}

	ing, err := ingest.New(ingest.Config{Catalog: ds.Catalog, Stores: ds.Stores, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Append(ingest.FromStepChunks(0, steps[0])); err != nil {
		t.Fatal(err)
	}
	grown, _, _, _ := sharedRun(t, cl, req())
	if want := cfg.Grid.Cells(); grown.Tuples != want {
		t.Fatalf("after the append: %d tuples, want %d", grown.Tuples, want)
	}
	if want := cfg.Grid.Cells() - base; grown.Join.TuplesBuilt != want {
		t.Errorf("after the append: built %d tuples, want the new left chunks' %d", grown.Join.TuplesBuilt, want)
	}
	r := req()
	r.Collect = true
	fresh, err := engine.RunRequest(context.Background(), ij.New(), cl, r) // exclusive: caches reset
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Join.TuplesBuilt != cfg.Grid.Cells() {
		t.Errorf("exclusive run built %d, want every table: %d", fresh.Join.TuplesBuilt, cfg.Grid.Cells())
	}
	if !bytes.Equal(rowBytes(t, grown), rowBytes(t, fresh)) {
		t.Error("rows after the append differ from a run that builds every table")
	}
	// The exclusive run reset the caches and kept nothing for later.
	if after, _, _, _ := sharedRun(t, cl, req()); after.Join.TuplesBuilt != cfg.Grid.Cells() {
		t.Errorf("shared run after an exclusive one built %d, want every table (%d): an exclusive run keeps none", after.Join.TuplesBuilt, cfg.Grid.Cells())
	}
}

// TestConcurrentStatementsShareCachedTables: two shared statements run at
// once on a warm cluster probe the same cached tables, each with its own
// probe scratch (run it under -race), and both return the warm-up's rows.
func TestConcurrentStatementsShareCachedTables(t *testing.T) {
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
	warmup, _, _, _ := sharedRun(t, cl, req())
	want := rowBytes(t, warmup)
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
		if res.Join.TuplesBuilt != 0 {
			t.Errorf("statement %d built %d tuples, want every table from the cache", i, res.Join.TuplesBuilt)
		}
		if !bytes.Equal(rowBytes(t, res), want) {
			t.Errorf("statement %d: rows differ from the warm-up's", i)
		}
	}
}
