package engine_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/gh"
	"sciview/internal/ij"
	"sciview/internal/metadata"
	"sciview/internal/oilres"
	"sciview/internal/partition"
	"sciview/internal/scratch"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

func genCluster(t *testing.T, grid, p, q partition.Dims, ns, nj int) (*oilres.Dataset, *cluster.Cluster) {
	t.Helper()
	ds, err := oilres.Generate(oilres.Config{
		Grid: grid, LeftPart: p, RightPart: q,
		StorageNodes: ns, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: ns, ComputeNodes: nj,
		CacheBytes: 64 << 20, // generous: the paper's memory assumption holds
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cl
}

func fullJoinReq(collect bool) engine.Request {
	return engine.Request{
		LeftTable: "T1", RightTable: "T2",
		JoinAttrs: []string{"x", "y", "z"},
		Collect:   collect,
	}
}

func engines() []engine.Engine {
	return []engine.Engine{ij.New(), gh.New()}
}

func TestFullJoinTupleCount(t *testing.T) {
	grid := partition.D(16, 16, 8)
	_, cl := genCluster(t, grid, partition.D(8, 8, 8), partition.D(4, 4, 8), 3, 2)
	want := grid.Cells()
	for _, e := range engines() {
		res, err := engine.RunRequest(context.Background(), e, cl, fullJoinReq(false))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Tuples != want {
			t.Errorf("%s: tuples = %d, want %d", e.Name(), res.Tuples, want)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed", e.Name())
		}
	}
}

// collectRows flattens and sorts the collected output for comparison.
func collectRows(t *testing.T, res *engine.Result) [][]float32 {
	t.Helper()
	var rows [][]float32
	for _, st := range res.Collected {
		for r := 0; r < st.NumRows(); r++ {
			rows = append(rows, st.Row(r, nil))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		for c := range rows[i] {
			if rows[i][c] != rows[j][c] {
				return rows[i][c] < rows[j][c]
			}
		}
		return false
	})
	return rows
}

func TestEnginesProduceIdenticalResults(t *testing.T) {
	grid := partition.D(8, 8, 4)
	_, cl := genCluster(t, grid, partition.D(4, 4, 4), partition.D(2, 4, 4), 2, 3)
	var all [][][]float32
	for _, e := range engines() {
		res, err := engine.RunRequest(context.Background(), e, cl, fullJoinReq(true))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		all = append(all, collectRows(t, res))
	}
	if len(all[0]) != len(all[1]) || len(all[0]) != int(grid.Cells()) {
		t.Fatalf("row counts: ij=%d gh=%d want %d", len(all[0]), len(all[1]), grid.Cells())
	}
	for i := range all[0] {
		for c := range all[0][i] {
			if all[0][i][c] != all[1][i][c] {
				t.Fatalf("row %d differs: ij=%v gh=%v", i, all[0][i], all[1][i])
			}
		}
	}
	// Sanity: joined record carries x,y,z,oilp,wp.
	if len(all[0][0]) != 5 {
		t.Errorf("result width = %d, want 5", len(all[0][0]))
	}
}

func TestRangeFilteredJoin(t *testing.T) {
	grid := partition.D(16, 8, 4)
	_, cl := genCluster(t, grid, partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	req := fullJoinReq(false)
	// x in [0,7], y in [2,5]: 8 × 4 × 4 cells.
	req.Filter = metadata.Range{
		Attrs: []string{"x", "y"},
		Lo:    []float64{0, 2},
		Hi:    []float64{7, 5},
	}
	want := int64(8 * 4 * 4)
	for _, e := range engines() {
		res, err := engine.RunRequest(context.Background(), e, cl, req)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res.Tuples != want {
			t.Errorf("%s: tuples = %d, want %d", e.Name(), res.Tuples, want)
		}
	}
}

func TestMeasureFilteredJoin(t *testing.T) {
	// A filter on a measure attribute of the left table restricts which
	// left records join; both engines must agree.
	_, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	req := fullJoinReq(false)
	req.Filter = metadata.Range{
		Attrs: []string{"oilp"},
		Lo:    []float64{0},
		Hi:    []float64{0.25},
	}
	var counts []int64
	for _, e := range engines() {
		res, err := engine.RunRequest(context.Background(), e, cl, req)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		counts = append(counts, res.Tuples)
	}
	if counts[0] != counts[1] {
		t.Errorf("ij=%d gh=%d", counts[0], counts[1])
	}
	if counts[0] <= 0 || counts[0] >= 8*8*4 {
		t.Errorf("implausible filtered count %d", counts[0])
	}
}

func TestIJTrafficAndCache(t *testing.T) {
	grid := partition.D(16, 16, 8)
	ds, cl := genCluster(t, grid, partition.D(8, 8, 8), partition.D(4, 4, 8), 3, 2)
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, fullJoinReq(false))
	if err != nil {
		t.Fatal(err)
	}
	// Under the memory assumption no sub-table is fetched twice:
	// network volume = T·(RS_R + RS_S).
	want := ds.Tuples() * int64(4*tuple.AttrSize+4*tuple.AttrSize)
	if res.Traffic.NetBytesToCompute != want {
		t.Errorf("net bytes = %d, want %d", res.Traffic.NetBytesToCompute, want)
	}
	if res.Traffic.StorageBytesRead != want {
		t.Errorf("storage read = %d, want %d", res.Traffic.StorageBytesRead, want)
	}
	// IJ never spills.
	if res.Traffic.ScratchBytesWritten != 0 || res.Traffic.ScratchBytesRead != 0 {
		t.Errorf("IJ spilled: %+v", res.Traffic)
	}
	if res.Cache.Evictions != 0 {
		t.Errorf("evictions = %d under memory assumption", res.Cache.Evictions)
	}
	// Each right sub-table is connected to 2 left sub-tables?? No: with
	// p=(8,8,8), q=(4,4,8) each right fits in one left: degree 1, and each
	// edge needs its right once. Misses = unique fetches; hits = reuses of
	// left sub-tables across edges (8 rights per left - sorted order).
	if res.Cache.Hits == 0 {
		t.Error("expected cache hits from left sub-table reuse")
	}
	// Lookup accounting: probed tuples = sum over edges of right rows.
	ne := partition.NumEdges(grid, partition.D(8, 8, 8), partition.D(4, 4, 8))
	cs := partition.D(4, 4, 8).Cells()
	if res.Join.TuplesProbed != ne*cs {
		t.Errorf("probed = %d, want n_e·c_S = %d", res.Join.TuplesProbed, ne*cs)
	}
	if res.Join.TuplesBuilt != ds.Tuples() {
		t.Errorf("built = %d, want T = %d", res.Join.TuplesBuilt, ds.Tuples())
	}
}

func TestGHTrafficSpillsBothTables(t *testing.T) {
	ds, cl := genCluster(t, partition.D(16, 16, 8), partition.D(8, 8, 8), partition.D(4, 4, 8), 3, 2)
	res, err := engine.RunRequest(context.Background(), gh.New(), cl, fullJoinReq(false))
	if err != nil {
		t.Fatal(err)
	}
	bytes := ds.Tuples() * int64(4*tuple.AttrSize+4*tuple.AttrSize)
	// Plus one block header per (storage slot, joiner, bucket, side): each
	// of those 3·2·4·2 buffers holds less than one block at this size.
	spill := bytes + 3*2*4*2*scratch.BlockHeader
	if res.Traffic.ScratchBytesWritten != spill {
		t.Errorf("spill written = %d, want %d", res.Traffic.ScratchBytesWritten, spill)
	}
	if res.Traffic.ScratchBytesRead != spill {
		t.Errorf("spill read = %d, want %d", res.Traffic.ScratchBytesRead, spill)
	}
	if res.Traffic.NetBytesToCompute != bytes {
		t.Errorf("net = %d, want %d", res.Traffic.NetBytesToCompute, bytes)
	}
	// GH's CPU cost is one build and one probe per tuple.
	if res.Join.TuplesBuilt != ds.Tuples() || res.Join.TuplesProbed != ds.Tuples() {
		t.Errorf("built=%d probed=%d, want T=%d", res.Join.TuplesBuilt, res.Join.TuplesProbed, ds.Tuples())
	}
	if res.Phases["partition"] <= 0 || res.Phases["bucketjoin"] <= 0 {
		t.Error("phase durations missing")
	}
}

func TestGHInsensitiveToPartitioning(t *testing.T) {
	// Same grid, wildly different partitionings: GH tuple counts and
	// spill volumes identical.
	grid := partition.D(16, 16, 4)
	var spills []int64
	for _, parts := range [][2]partition.Dims{
		{partition.D(8, 8, 4), partition.D(8, 8, 4)},
		{partition.D(16, 2, 4), partition.D(2, 16, 4)},
	} {
		_, cl := genCluster(t, grid, parts[0], parts[1], 2, 2)
		res, err := engine.RunRequest(context.Background(), gh.New(), cl, fullJoinReq(false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Tuples != grid.Cells() {
			t.Fatalf("tuples = %d", res.Tuples)
		}
		spills = append(spills, res.Traffic.ScratchBytesWritten)
	}
	if spills[0] != spills[1] {
		t.Errorf("spill volumes differ: %v", spills)
	}
}

// TestCPUSecPerOpSlowsBothEngines pins the one CPU knob on both engines:
// a per-operation charge changes no count and no result, and the run
// takes at least the modeled time of one joiner's share of the operations.
func TestCPUSecPerOpSlowsBothEngines(t *testing.T) {
	ds, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	const perOp = 20e-6
	slow, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 64 << 20, CPUSecPerOp: perOp,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		res0, err := engine.RunRequest(context.Background(), e, cl, fullJoinReq(false))
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.RunRequest(context.Background(), e, slow, fullJoinReq(false))
		if err != nil {
			t.Fatal(err)
		}
		if res.Join != res0.Join || res.Tuples != res0.Tuples {
			t.Errorf("%s: counts changed under a CPU charge: %+v vs %+v", e.Name(), res.Join, res0.Join)
		}
		ops := res.Join.TuplesBuilt + res.Join.TuplesProbed
		if want := float64(ops) / 2 * perOp; res.Elapsed.Seconds() < 0.9*want {
			t.Errorf("%s: elapsed %v, want at least %.3fs of modeled CPU", e.Name(), res.Elapsed, want)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, cl := genCluster(t, partition.D(4, 4, 2), partition.D(2, 2, 2), partition.D(2, 2, 2), 1, 1)
	for _, e := range engines() {
		if _, err := engine.RunRequest(context.Background(), e, cl, engine.Request{RightTable: "T2", JoinAttrs: []string{"x"}}); err == nil {
			t.Errorf("%s: missing left table accepted", e.Name())
		}
		if _, err := engine.RunRequest(context.Background(), e, cl, engine.Request{LeftTable: "T1", RightTable: "T2"}); err == nil {
			t.Errorf("%s: missing join attrs accepted", e.Name())
		}
		if _, err := engine.RunRequest(context.Background(), e, cl, engine.Request{LeftTable: "nope", RightTable: "T2", JoinAttrs: []string{"x"}}); err == nil {
			t.Errorf("%s: unknown table accepted", e.Name())
		}
		bad := fullJoinReq(false)
		bad.Filter = metadata.Range{Attrs: []string{"x"}, Lo: []float64{5}, Hi: []float64{1}}
		if _, err := engine.RunRequest(context.Background(), e, cl, bad); err == nil {
			t.Errorf("%s: inverted filter accepted", e.Name())
		}
	}
}

func TestSmallCacheStillCorrect(t *testing.T) {
	// Cache far below the memory assumption: IJ must refetch (extension
	// behaviour) but stay correct.
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(8, 8, 4), LeftPart: partition.D(8, 8, 4), RightPart: partition.D(2, 2, 4),
		StorageNodes: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2,
		CacheBytes: 2048, // tiny
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunRequest(context.Background(), ij.New(), cl, fullJoinReq(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != ds.Tuples() {
		t.Errorf("tuples = %d, want %d", res.Tuples, ds.Tuples())
	}
	if res.Cache.Evictions == 0 {
		t.Error("expected evictions with a tiny cache")
	}
}

func TestGHBucketTuning(t *testing.T) {
	_, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	for _, buckets := range []int{1, 2, 7, 32} {
		e := &gh.Engine{Buckets: buckets}
		res, err := engine.RunRequest(context.Background(), e, cl, fullJoinReq(false))
		if err != nil {
			t.Fatalf("buckets=%d: %v", buckets, err)
		}
		if res.Tuples != 8*8*4 {
			t.Errorf("buckets=%d: tuples = %d", buckets, res.Tuples)
		}
	}
}

func TestPropEnginesAgreeOnRandomConfigs(t *testing.T) {
	// Random grids, partition pairs and cluster shapes: both engines must
	// produce exactly T tuples (full join, selectivity 1) and identical
	// counts under range filters.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pow := func(limit int) int {
			v := 1
			for v*2 <= limit && r.Intn(2) == 0 {
				v *= 2
			}
			return v
		}
		grid := partition.D(4<<r.Intn(2), 4<<r.Intn(2), 2<<r.Intn(2))
		p := partition.D(pow(grid.X), pow(grid.Y), pow(grid.Z))
		q := partition.D(pow(grid.X), pow(grid.Y), pow(grid.Z))
		ns := 1 + r.Intn(3)
		nj := 1 + r.Intn(4)
		ds, err := oilres.Generate(oilres.Config{
			Grid: grid, LeftPart: p, RightPart: q, StorageNodes: ns, Seed: seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		cl, err := cluster.New(cluster.Config{
			StorageNodes: ns, ComputeNodes: nj, CacheBytes: 32 << 20,
		}, ds.Catalog, ds.Stores)
		if err != nil {
			t.Log(err)
			return false
		}
		req := fullJoinReq(false)
		// Random range filter on x half the time.
		if r.Intn(2) == 0 {
			hi := float64(r.Intn(grid.X))
			req.Filter = metadata.Range{Attrs: []string{"x"}, Lo: []float64{0}, Hi: []float64{hi}}
		}
		var counts []int64
		for _, e := range engines() {
			res, err := engine.RunRequest(context.Background(), e, cl, req)
			if err != nil {
				t.Logf("%s: %v", e.Name(), err)
				return false
			}
			counts = append(counts, res.Tuples)
		}
		if counts[0] != counts[1] {
			t.Logf("grid=%v p=%v q=%v ns=%d nj=%d: ij=%d gh=%d",
				grid, p, q, ns, nj, counts[0], counts[1])
			return false
		}
		if req.Filter.Empty() && counts[0] != grid.Cells() {
			t.Logf("full join produced %d of %d", counts[0], grid.Cells())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestProjectionPushdownReducesTraffic(t *testing.T) {
	// 8-attribute tables; the query needs join keys + one measure per
	// side: 5 of 8 columns from the left, 4 of 8 from the right.
	ds, err := oilres.Generate(oilres.Config{
		Grid: partition.D(16, 16, 8), LeftPart: partition.D(4, 4, 8), RightPart: partition.D(4, 4, 8),
		LeftMeasures:  []string{"oilp", "l1", "l2", "l3", "l4"},
		RightMeasures: []string{"wp", "r1", "r2", "r3", "r4"},
		StorageNodes:  2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes: 2, ComputeNodes: 2, CacheBytes: 64 << 20,
	}, ds.Catalog, ds.Stores)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines() {
		full := fullJoinReq(false)
		resFull, err := engine.RunRequest(context.Background(), e, cl, full)
		if err != nil {
			t.Fatal(err)
		}
		proj := fullJoinReq(false)
		proj.Project = []string{"oilp", "wp"}
		resProj, err := engine.RunRequest(context.Background(), e, cl, proj)
		if err != nil {
			t.Fatal(err)
		}
		if resProj.Tuples != resFull.Tuples {
			t.Errorf("%s: projection changed tuple count: %d vs %d",
				e.Name(), resProj.Tuples, resFull.Tuples)
		}
		// Full records are 32 B each side; projected are (3+1)·4 = 16 B:
		// exactly half the traffic.
		if resProj.Traffic.NetBytesToCompute*2 != resFull.Traffic.NetBytesToCompute {
			t.Errorf("%s: projected traffic %d, full %d (want exactly half)",
				e.Name(), resProj.Traffic.NetBytesToCompute, resFull.Traffic.NetBytesToCompute)
		}
		// The spilled rows halve too; both runs write one block header per
		// (storage slot, joiner, bucket, side), 2·2·4·2 of them.
		hdr := int64(2 * 2 * 4 * 2 * scratch.BlockHeader)
		if e.Name() == "gh" && (resProj.Traffic.ScratchBytesWritten-hdr)*2 != resFull.Traffic.ScratchBytesWritten-hdr {
			t.Errorf("gh: projected spill %d, full %d (want exactly half the rows)",
				resProj.Traffic.ScratchBytesWritten, resFull.Traffic.ScratchBytesWritten)
		}
	}
}

func TestProjectionPushdownPreservesValues(t *testing.T) {
	_, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(2, 4, 4), 2, 2)
	for _, e := range engines() {
		full := fullJoinReq(true)
		resFull, err := engine.RunRequest(context.Background(), e, cl, full)
		if err != nil {
			t.Fatal(err)
		}
		proj := fullJoinReq(true)
		proj.Project = []string{"x", "y", "z", "wp"}
		resProj, err := engine.RunRequest(context.Background(), e, cl, proj)
		if err != nil {
			t.Fatal(err)
		}
		// Projected output drops oilp: schema x,y,z,wp.
		fullRows := collectRows(t, resFull)
		projRows := collectRows(t, resProj)
		if len(projRows) != len(fullRows) {
			t.Fatalf("%s: row counts %d vs %d", e.Name(), len(projRows), len(fullRows))
		}
		if len(projRows[0]) != 4 {
			t.Fatalf("%s: projected width = %d, want 4", e.Name(), len(projRows[0]))
		}
		// Full schema is x,y,z,oilp,wp: compare (x,y,z,wp).
		for i := range fullRows {
			want := []float32{fullRows[i][0], fullRows[i][1], fullRows[i][2], fullRows[i][4]}
			for c := range want {
				if projRows[i][c] != want[c] {
					t.Fatalf("%s: row %d col %d: %v vs %v", e.Name(), i, c, projRows[i][c], want[c])
				}
			}
		}
	}
}

func TestTraceRecordsEngineActivity(t *testing.T) {
	ds, cl := genCluster(t, partition.D(8, 8, 4), partition.D(4, 4, 4), partition.D(4, 4, 4), 2, 2)
	for _, e := range engines() {
		rec := trace.New()
		req := fullJoinReq(false)
		req.Trace = rec
		if _, err := engine.RunRequest(context.Background(), e, cl, req); err != nil {
			t.Fatal(err)
		}
		sum := trace.Summarize(rec.Events())
		if sum.Events == 0 {
			t.Fatalf("%s: no events recorded", e.Name())
		}
		byKind := map[trace.Kind]trace.KindSummary{}
		for _, k := range sum.Kinds {
			byKind[k.Kind] = k
		}
		// Both engines fetch every sub-table once: 2 tables × 4 chunks,
		// and the fetch bytes equal the full transfer volume.
		fetch := byKind[trace.KindFetch]
		if fetch.Count != 8 {
			t.Errorf("%s: %d fetch events, want 8", e.Name(), fetch.Count)
		}
		wantBytes := ds.Tuples() * 32
		if fetch.Bytes != wantBytes {
			t.Errorf("%s: fetch bytes = %d, want %d", e.Name(), fetch.Bytes, wantBytes)
		}
		if byKind[trace.KindBuild].Count == 0 || byKind[trace.KindProbe].Count == 0 {
			t.Errorf("%s: missing build/probe events", e.Name())
		}
		if e.Name() == "gh" {
			if byKind[trace.KindSpill].Count == 0 || byKind[trace.KindBucketRead].Count == 0 ||
				byKind[trace.KindShip].Count == 0 {
				t.Errorf("gh: missing spill pipeline events: %+v", sum.Kinds)
			}
			// Spilled bytes equal bucket-read bytes equal total volume.
			if byKind[trace.KindSpill].Bytes != byKind[trace.KindBucketRead].Bytes {
				t.Errorf("gh: spill %d bytes but read %d", byKind[trace.KindSpill].Bytes,
					byKind[trace.KindBucketRead].Bytes)
			}
		}
		// Running without a recorder still works (nil-safety).
		req.Trace = nil
		if _, err := engine.RunRequest(context.Background(), e, cl, req); err != nil {
			t.Fatal(err)
		}
	}
}
