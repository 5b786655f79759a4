package main

import (
	"fmt"
	"time"

	"sciview"
	"sciview/internal/planner"
	"sciview/internal/service"
)

// Load shape shared by every workload (see README.md).
const (
	clients     = 2 // closed-loop client goroutines = service MaxInFlight
	warmPasses  = 3 // corpus passes before measuring: fills caches, graduates the estimator
	stepZ       = 8 // Z cells per ingest step: lcm(LeftPart.Z, RightPart.Z)
	createView  = "CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y, z)"
	alphaBuild  = 80e-9 // preset cost-model constants, so no host calibration runs
	alphaLookup = 40e-9
)

var (
	grid      = sciview.Dims{X: 64, Y: 64, Z: 32}
	leftPart  = sciview.Dims{X: 16, Y: 16, Z: 8}
	rightPart = sciview.Dims{X: 8, Y: 8, Z: 8}
)

// workload is one traffic mix over one cluster configuration. The comment
// on each entry of workloads says why it exists: which layers it prices.
type workload struct {
	name    string
	cluster sciview.ClusterSpec
	svc     service.Config
	// ingestSteps > 0 withholds that many Z slabs and appends them evenly
	// across the measured window.
	ingestSteps int
	corpus      []string
}

var workloads = []workload{
	{
		// Unthrottled, cache fits: prices hashjoin, plan operators,
		// allocation and colenc decode on every cache hit.
		name: "warm_join",
		cluster: sciview.ClusterSpec{
			Wire: "colenc", CacheBytes: 64 << 20,
		},
		corpus: []string{
			"SELECT COUNT(*) FROM V1",
			"SELECT * FROM V1 WHERE x BETWEEN 0 AND 15",
			"SELECT wp, oilp FROM V1 WHERE z = 1",
			"SELECT x, AVG(wp) FROM V1 GROUP BY x ORDER BY x",
			"SELECT x, y, COUNT(*), SUM(oilp) FROM V1 GROUP BY x, y ORDER BY x, y",
			"SELECT * FROM V1 ORDER BY wp DESC, x, y, z LIMIT 100",
			"SELECT * FROM V1 WHERE x >= 8 AND y < 24 LIMIT 1000",
		},
	},
	{
		// The paper's regime: throttled disk and NIC, TCP BDS RPC, a 1 MiB
		// cache that thrashes; bytes moved set the wall clock.
		name: "cold_fetch",
		cluster: sciview.ClusterSpec{
			Wire: "colenc", CacheBytes: 1 << 20,
			DiskReadBw: 20e6, NetBw: 10e6, UseTCP: true,
		},
		corpus: []string{
			"SELECT COUNT(*) FROM V1",
			"SELECT * FROM V1 WHERE x BETWEEN 0 AND 15",
			"SELECT wp, oilp FROM V1 WHERE z = 1",
			"SELECT * FROM V1 LIMIT 64",
			"SELECT COUNT(*) FROM T2 WHERE x < 8",
		},
	},
	{
		// Forced Grace Hash under a 1 MiB budget: partitioning, scratch I/O,
		// external sort, spilling aggregation, admission queueing.
		name: "gh_spill",
		svc:  service.Config{Force: "gh", MemoryBudget: 1 << 20},
		corpus: []string{
			"SELECT * FROM V1 ORDER BY wp DESC, x, y, z",
			"SELECT x, y, COUNT(*), SUM(oilp) FROM V1 GROUP BY x, y ORDER BY x, y",
			"SELECT x, y, z, MIN(wp) FROM V1 GROUP BY x, y, z ORDER BY x, y, z",
			"SELECT oilp FROM T1 ORDER BY oilp DESC",
			"SELECT COUNT(*) FROM V1",
		},
	},
	{
		// Appends beside reads on the row-major wire: ingest, catalog append,
		// R-tree insert, invalidation and snapshot pinning under query load.
		name: "ingest_mix",
		cluster: sciview.ClusterSpec{
			CacheBytes: 64 << 20,
		},
		ingestSteps: 6,
		corpus: []string{
			"SELECT * FROM V1 WHERE z BETWEEN 0 AND 7",
			"SELECT wp, oilp FROM V1 WHERE z = 1",
			"SELECT x, AVG(wp) FROM V1 WHERE x < 16 GROUP BY x ORDER BY x",
			"SELECT COUNT(*) FROM V1",
			"SELECT COUNT(*) FROM T2 WHERE x < 8",
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// datasetSpec is the generated oil-reservoir dataset: T1(x,y,z,oilp,soil)
// and T2(x,y,z,wp,swat) over the grid, on 4 storage nodes. extraZ extends
// the grid by withheld ingest slabs.
func datasetSpec(seed int64, extraZ int) sciview.OilReservoirSpec {
	g := grid
	g.Z += extraZ
	return sciview.OilReservoirSpec{
		Grid: g, LeftPart: leftPart, RightPart: rightPart,
		LeftMeasures:  []string{"oilp", "soil"},
		RightMeasures: []string{"wp", "swat"},
		StorageNodes:  4,
		Seed:          seed,
	}
}

func generate(w *workload, seed int64) (*sciview.Dataset, []*sciview.Batch, error) {
	spec := datasetSpec(seed, stepZ*w.ingestSteps)
	if w.ingestSteps > 0 {
		return sciview.GenerateOilReservoirSteps(spec, w.ingestSteps)
	}
	ds, err := sciview.GenerateOilReservoir(spec)
	return ds, nil, err
}

// stack is one running system under test plus everything the harness
// needs to drive and check it.
type stack struct {
	w        *workload
	sys      *sciview.System
	svc      *service.Service
	ex       *planner.Executor
	batches  []*sciview.Batch
	ingestor *sciview.Ingestor
	stmts    []*statement
	// ref holds, per dataset version offset (0 = base, k = after k
	// appends) and statement, the fingerprint a correct response has.
	ref [][]fingerprint
	// warmLat is the slowest warm-up statement, the watchdog's yardstick.
	warmLat time.Duration
	// setup is how long newStack took.
	setup time.Duration
}

func (s *stack) close() {
	s.svc.Close()
	s.sys.Close()
}

// baseVersion is the catalog version of the generated dataset before any
// append; version offsets in stack.ref count from it.
const baseVersion = 1

// newStack is the benchmark's set-up: generate, assemble the system and
// the service, define the view, warm up, and compute the reference
// fingerprints.
func newStack(w *workload, seed int64) (*stack, error) {
	start := time.Now()
	ds, batches, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	spec := w.cluster
	spec.ComputeNodes = 2
	sys, err := sciview.NewSystem(ds, spec)
	if err != nil {
		return nil, err
	}
	cfg := w.svc
	cfg.MaxInFlight = clients
	cfg.AlphaBuild, cfg.AlphaLookup = alphaBuild, alphaLookup
	cfg.Prefetch = 2
	svc := service.New(sys.Cluster(), cfg)
	s := &stack{w: w, sys: sys, svc: svc, ex: svc.Executor(), batches: batches}
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	if _, err := s.ex.Exec(createView); err != nil {
		return fail(err)
	}
	if w.ingestSteps > 0 {
		if s.ingestor, err = sys.Ingestor(1); err != nil {
			return fail(err)
		}
	}
	for _, sql := range w.corpus {
		st, err := parseStatement(sql)
		if err != nil {
			return fail(err)
		}
		s.stmts = append(s.stmts, st)
	}
	if err := s.warmUp(); err != nil {
		return fail(err)
	}
	if s.ref, err = referenceFingerprints(w, seed, s.stmts); err != nil {
		return fail(err)
	}
	s.setup = time.Since(start)
	return s, nil
}

// warmUp runs the corpus warmPasses times through the service at one
// client, so the measured window starts on filled caches and a graduated
// cost estimator.
func (s *stack) warmUp() error {
	for pass := 0; pass < warmPasses; pass++ {
		for _, st := range s.stmts {
			t0 := time.Now()
			if _, err := s.svc.SubmitSQL(bg, s.ex, service.SQL{Query: st.sql}); err != nil {
				return fmt.Errorf("warm-up %q: %w", st.sql, err)
			}
			if d := time.Since(t0); d > s.warmLat {
				s.warmLat = d
			}
		}
	}
	return nil
}
