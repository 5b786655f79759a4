package sciview

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/engine"
	"sciview/internal/fault"
	"sciview/internal/metrics"
	"sciview/internal/planner"
	"sciview/internal/repair"
	"sciview/internal/trace"
)

// ClusterSpec describes the emulated coupled storage/compute platform a
// System runs on. Bandwidths are bytes/second; zero means unlimited (no
// modeled delay).
type ClusterSpec struct {
	// StorageNodes must match the dataset's storage node count;
	// ComputeNodes is the number of join (QES) nodes.
	StorageNodes int
	ComputeNodes int
	// DiskReadBw / DiskWriteBw model each node's local disk.
	DiskReadBw  float64
	DiskWriteBw float64
	// NetBw models each node's network interface.
	NetBw float64
	// SharedFS replaces local disks with a single NFS-like server that
	// performs all I/O (the paper's Figure 9 configuration);
	// NFSContention adds the shared server's thrash penalty per
	// concurrent client.
	SharedFS      bool
	NFSContention float64
	// CacheBytes is the capacity of each compute node's LRU sub-table
	// cache (default 64 MiB).
	CacheBytes int64
	// CPUSecPerOp charges each hash operation this many seconds on the
	// owning compute node's modeled CPU, emulating era-appropriate
	// processors (0 = only real host cost).
	CPUSecPerOp float64
	// UseTCP serves every BDS over real TCP loopback sockets and fetches
	// sub-tables through them (wire codec and all). Call Close when done.
	UseTCP bool
	// Wire selects the storage→compute fetch codec: "" or "rowmajor" for
	// decoded sub-tables (SVT1), "colenc" for the compressed columnar
	// frames (SVT2) that shrink the modeled network transfer.
	Wire string
	// Faults is a deterministic chaos schedule injected into the cluster's
	// disks and transports, e.g.
	// "crash:storage-1:fetch:3,delay:compute-0:write:2:5ms" (see
	// internal/fault.Parse). Empty disables injection.
	Faults string
	// BreakerThreshold and BreakerCooldown tune the per-storage-node
	// circuit breakers (0 = defaults: trip after 3 consecutive failures,
	// probe after 100ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Metrics, when set, wires the system into a live metrics registry
	// (cache, breaker, fetch and per-operator instruments); serve it with
	// metrics.Handler or metrics.Serve. Nil disables instrumentation.
	Metrics *metrics.Registry
	// MemBudget, when positive, caps each query's resident working set:
	// blocking operators (sort, grouped aggregation, join builds) spill
	// to compute-node scratch disks instead of exceeding their share.
	// Results are byte-identical to unbudgeted execution.
	MemBudget int64
}

// System is a running view-creation framework instance: an emulated
// cluster serving a dataset, an SQL executor, and the cost-model-driven
// Query Planning Service.
type System struct {
	cluster  *cluster.Cluster
	executor *planner.Executor
	dataset  *Dataset
	metrics  *metrics.Registry

	liveMu   sync.Mutex
	ingestor *Ingestor
}

// NewSystem assembles a system over a dataset.
func NewSystem(ds *Dataset, spec ClusterSpec) (*System, error) {
	if spec.StorageNodes == 0 {
		spec.StorageNodes = ds.StorageNodes()
	}
	if spec.StorageNodes != ds.StorageNodes() {
		return nil, fmt.Errorf("sciview: cluster has %d storage nodes but dataset spans %d",
			spec.StorageNodes, ds.StorageNodes())
	}
	if spec.ComputeNodes == 0 {
		spec.ComputeNodes = 1
	}
	if spec.CacheBytes == 0 {
		spec.CacheBytes = 64 << 20
	}
	var inj *fault.Injector
	if spec.Faults != "" {
		var err error
		if inj, err = fault.Parse(spec.Faults); err != nil {
			return nil, fmt.Errorf("sciview: fault spec: %w", err)
		}
	}
	cl, err := cluster.New(cluster.Config{
		StorageNodes:     spec.StorageNodes,
		ComputeNodes:     spec.ComputeNodes,
		DiskReadBw:       spec.DiskReadBw,
		DiskWriteBw:      spec.DiskWriteBw,
		NetBw:            spec.NetBw,
		SharedFS:         spec.SharedFS,
		NFSContention:    spec.NFSContention,
		CacheBytes:       spec.CacheBytes,
		CPUSecPerOp:      spec.CPUSecPerOp,
		UseTCP:           spec.UseTCP,
		Wire:             spec.Wire,
		Faults:           inj,
		BreakerThreshold: spec.BreakerThreshold,
		BreakerCooldown:  spec.BreakerCooldown,
		Metrics:          spec.Metrics,
	}, ds.catalog, ds.stores)
	if err != nil {
		return nil, err
	}
	ex := planner.NewExecutor(cl)
	ex.Metrics = spec.Metrics
	ex.MemBudget = spec.MemBudget
	return &System{cluster: cl, executor: ex, dataset: ds, metrics: spec.Metrics}, nil
}

// Close releases the system's network resources (TCP mode only).
func (s *System) Close() error { return s.cluster.Close() }

// Repair builds (without starting) a self-healing repair manager over the
// system's cluster: node lifecycle tracking, catch-up replay for returning
// storage nodes, and periodic anti-entropy re-replication. replicas = 0
// infers the replication factor from the catalog; interval = 0 uses the
// default sweep period; bandwidth caps repair traffic in bytes/second
// (0 = uncapped). Call Start on the returned manager, Stop when done, and
// service.AttachRepair to surface its stats.
func (s *System) Repair(replicas int, interval time.Duration, bandwidth float64) (*repair.Manager, error) {
	return repair.New(repair.Config{
		Cluster:   s.cluster,
		Replicas:  replicas,
		Interval:  interval,
		Bandwidth: bandwidth,
		Metrics:   s.metrics,
	})
}

// Cluster exposes the underlying emulated cluster, so in-module tools can
// layer additional services (e.g. the concurrent query service) over a
// System's platform.
func (s *System) Cluster() *cluster.Cluster { return s.cluster }

// EnableTrace turns on per-operation execution tracing for subsequent join
// queries; TraceSummary reads and clears the collected events.
func (s *System) EnableTrace() {
	s.executor.Trace = trace.New()
}

// TraceSummary renders the events recorded since the last call (or since
// EnableTrace) and clears them. It returns "" when tracing is off.
func (s *System) TraceSummary() string {
	if s.executor.Trace == nil {
		return ""
	}
	events := s.executor.Trace.Events()
	s.executor.Trace.Reset()
	var sb strings.Builder
	trace.Summarize(events).Print(&sb)
	return sb.String()
}

// ForceEngine overrides the planner's cost-model decision: "ij", "gh", or
// "" to restore automatic selection.
func (s *System) ForceEngine(name string) error {
	switch name {
	case "", "ij", "gh":
		s.executor.Planner.Force = name
		return nil
	default:
		return fmt.Errorf("sciview: unknown engine %q (want \"ij\", \"gh\" or \"\")", name)
	}
}

// SetAlphas sets the cost-model CPU constants (seconds per hash build and
// lookup operation) instead of calibrating them on first use.
func (s *System) SetAlphas(build, lookup float64) {
	s.executor.Planner.AlphaBuild = build
	s.executor.Planner.AlphaLookup = lookup
}

// DisableCalibration pins the planner to the static configuration layer:
// observed run costs are no longer folded back, and every decision uses
// the configured simio rates and alphas.
func (s *System) DisableCalibration() {
	s.executor.Planner.Est = nil
}

// PlanInfo reports how a join query was (or would be) executed.
type PlanInfo struct {
	// Engine is the chosen QES: "ij" or "gh".
	Engine string
	// Forced reports whether the choice was forced rather than planned.
	Forced bool
	// Calibrated reports whether live-calibrated constants (derived from
	// observed runs) displaced the static configuration in the predictions.
	Calibrated bool
	// PredictIJ and PredictGH are the cost models' predicted run times.
	PredictIJ time.Duration
	PredictGH time.Duration
	// Measured is the actual execution time (zero for Explain).
	Measured time.Duration
	// Tuples is the number of result tuples the join produced.
	Tuples int64
	// SpillBytes and SpillReadBytes total the scratch traffic the run's
	// out-of-core operators caused (zero for unbudgeted or fitting runs).
	SpillBytes     int64
	SpillReadBytes int64
}

// Result is the outcome of one statement.
type Result struct {
	// ViewCreated names the view defined by a CREATE VIEW statement.
	ViewCreated string
	// Rows holds a SELECT's result.
	Rows *Table
	// Plan describes the join execution, when one ran.
	Plan *PlanInfo
	// Explain holds the rendered plan tree for EXPLAIN statements.
	Explain string
}

// Exec parses and executes one SQL statement:
//
//	CREATE VIEW V1 AS SELECT * FROM T1 JOIN T2 ON (x, y) [WHERE ...]
//	CREATE VIEW V2 AS SELECT * FROM V1 WHERE ...           -- view layering
//	SELECT */cols/aggregates FROM table-or-view [WHERE ...]
//	    [GROUP BY ...] [HAVING AGG(col) <op> num]
//	    [ORDER BY col [DESC], ...] [LIMIT n]
//	EXPLAIN SELECT ...                          -- render the plan, don't run
func (s *System) Exec(sql string) (*Result, error) {
	out, err := s.executor.Exec(sql)
	if err != nil {
		return nil, err
	}
	res := &Result{ViewCreated: out.ViewCreated, Explain: out.Explain}
	if out.Rows != nil {
		res.Rows = &Table{st: out.Rows}
	}
	if out.Result != nil && out.Decision != nil {
		res.Plan = &PlanInfo{
			Engine:     out.Decision.Chosen,
			Forced:     out.Decision.Forced,
			Calibrated: out.Decision.Calibrated,
			PredictIJ:  durationOf(out.Decision.PredictIJ.Total),
			PredictGH:  durationOf(out.Decision.PredictGH.Total),
			Measured:   out.Result.Elapsed,
			Tuples:     out.Result.Tuples,
		}
		for _, st := range out.Result.Operators {
			res.Plan.SpillBytes += st.SpillBytes
			res.Plan.SpillReadBytes += st.SpillReadBytes
		}
	}
	return res, nil
}

// Explain plans a join view query without executing it, returning the
// cost-model comparison. The query must select from a defined view.
func (s *System) Explain(view string) (*PlanInfo, error) {
	v, ok := s.executor.View(view)
	if !ok {
		return nil, fmt.Errorf("sciview: unknown view %q", view)
	}
	req, err := v.Request(nil, false)
	if err != nil {
		return nil, err
	}
	in, err := engine.Resolve(s.cluster.Catalog, req)
	if err != nil {
		return nil, err
	}
	eng, dec, err := s.executor.Planner.Decide(s.cluster, in)
	if err != nil {
		return nil, err
	}
	return &PlanInfo{
		Engine:     eng.Name(),
		Forced:     dec.Forced,
		Calibrated: dec.Calibrated,
		PredictIJ:  durationOf(dec.PredictIJ.Total),
		PredictGH:  durationOf(dec.PredictGH.Total),
	}, nil
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}
