// Package engine defines the common contract of the Query Execution
// Systems (QES): the request describing a join-view scan and the result
// with its timing, tuple counts and accounting. The two implementations —
// the page-level Indexed Join (internal/ij) and Grace Hash
// (internal/gh) — both execute queries of the form
//
//	SELECT * FROM V WHERE <ranges>,   V = Left ⊕<attrs> Right
//
// against an emulated cluster.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/metadata"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Request describes one join-view execution.
type Request struct {
	// LeftTable and RightTable name the joined virtual tables; LeftTable
	// is the build (inner) side.
	LeftTable  string
	RightTable string
	// JoinAttrs are the equi-join attributes (e.g. x, y, z).
	JoinAttrs []string
	// Filter is an optional range selection applied to the view.
	Filter metadata.Range
	// Project is the caller's demand: the view output attributes it reads.
	// Nil means every column, an empty list no column (a COUNT(*) reads
	// none), a list those columns. The join's output holds exactly the
	// demand, in join-result order (Inputs.OutSchema). What the engines
	// fetch is the demand plus the join attributes, pushed down to the BDS
	// so unneeded columns never travel — or every column, for a nil or
	// empty demand (EffectiveProject).
	Project []string
	// Collect retains the produced result sub-tables (for correctness
	// checks). Experiments leave it false and only count tuples, since the
	// paper's queries enumerate the view without storing it.
	Collect bool
	// Trace, when non-nil, records per-operation execution events
	// (fetches, builds, probes, spills) for offline analysis.
	Trace *trace.Recorder
	// Shared runs the query without exclusive ownership of the cluster:
	// no state reset at start, shared sub-table caches, and concurrent
	// execution alongside other shared queries. The concurrent query
	// service sets this. Result.Traffic, Result.Cache and Result.Health
	// then report what the cluster's counters moved during the run's
	// window, which includes any statements that overlapped it.
	Shared bool
	// Prefetch is the IJ joiner's lookahead depth: while edge i builds and
	// probes, the fetches for the sub-tables of edges i+1..i+Prefetch are
	// issued in the background (through the singleflight cache), hiding
	// network latency behind CPU work. 0 disables prefetching (the strict
	// fetch→build→probe loop); DefaultPrefetch is what the CLI flags use.
	// Prefetching changes overlap only — results, cost-model counters and
	// per-fetch miss accounting are identical either way.
	Prefetch int
	// Sink, when non-nil, streams result batches out of the join as they
	// are produced instead of materializing them: IJ emits after each edge
	// probe, GH after each bucket-pair join. Batches are grouped by "part"
	// (the IJ slot or GH group index) so a consumer can re-establish the
	// deterministic release order (see Sink). When a sink is set, Collect
	// is ignored and Result.Collected stays nil. Emitted sub-tables are
	// owned by the sink; the engine allocates a fresh output table after
	// each emit.
	Sink Sink
	// Progress, when non-nil, is updated with schedule-unit counts (IJ
	// edges / GH bucket pairs) as the run proceeds. The counters survive
	// an error return, so an early-terminated query can report how much of
	// the join it actually executed.
	Progress *Progress
	// AsOf pins chunk resolution to a catalog version for snapshot-isolated
	// reads: both sides see exactly the chunks committed at or before AsOf,
	// so appends that land mid-query never perturb the result. 0 means
	// "current" (unpinned). The query service stamps this at admission.
	AsOf int64
	// LeftVersions and RightVersions narrow each side to a window of append
	// versions (delta-join view maintenance resolves "only the chunks of
	// batch v" this way). A zero window is unconstrained. When set, the
	// window's Until — if zero — inherits AsOf, so deltas compose with
	// snapshot pins.
	LeftVersions  metadata.VersionWindow
	RightVersions metadata.VersionWindow
	// MemoryBudget bounds the engine's in-memory join state in bytes
	// (0 = unbounded). Each per-node QES divides its share of the budget
	// between the two sub-tables of a pair; a build side over its share
	// is partitioned to the node's scratch disk and joined leaf by leaf,
	// byte-identical to the in-memory join. The plan layer stamps this
	// from the query's admission budget share.
	MemoryBudget int64
}

// LeftWindow returns the effective version window for the left side:
// LeftVersions with an unset Until defaulting to AsOf.
func (r Request) LeftWindow() metadata.VersionWindow {
	return effectiveWindow(r.LeftVersions, r.AsOf)
}

// RightWindow returns the effective version window for the right side.
func (r Request) RightWindow() metadata.VersionWindow {
	return effectiveWindow(r.RightVersions, r.AsOf)
}

func effectiveWindow(w metadata.VersionWindow, asOf int64) metadata.VersionWindow {
	if w.Until == 0 {
		w.Until = asOf
	}
	return w
}

// Sink consumes streamed join output. Engines call Emit from the
// goroutine that owns the part (one goroutine per part at any time) with
// each batch of the part's output in order, Done exactly once when a
// part's final attempt has produced all its batches, and Discard when a
// failed attempt's output must be thrown away before a replay
// (fault-tolerant re-execution). Emit may block to bound buffered memory;
// it returns an error once the consumer has gone away, which the engine
// surfaces as a failed run.
//
// A part's output is a sequence of schedule units — IJ's connected
// components, the unit stage 1 deals round-robin to compute nodes; GH's
// bucket pairs — and last marks a unit's final batch, which is nil when
// there are no rows left to hand over. A run's output order is its
// release order: unit 0 of every part in part order, then unit 1 of every
// part, and so on, a part leaving the rotation once its units run out. A
// consumer that releases in this order takes one unit from each part in
// turn, so no part waits for another to finish, and IJ's output is its
// one-node schedule order at any compute-node count: component k is unit
// k/nj of part k%nj. Result.Released puts a collected run in the same
// order.
//
// Free returns a batch the consumer is done with, one an earlier Emit of
// the run handed over, or nil when none is free. The engine resets and
// refills it as the next output of any part (a run's batches all carry
// its output schema), so a run allocates only as many batches as it has
// in flight at once. Free may be called from any part's goroutine.
type Sink interface {
	Emit(part int, batch *tuple.SubTable, last bool) error
	Done(part int)
	Discard(part int)
	Free() *tuple.SubTable
}

// Progress counts join schedule units: edges for IJ, top-level bucket
// pairs for GH. Total is set once the schedule is known; Joined is
// incremented as units complete. Both are safe for concurrent readers
// while a run is in flight.
type Progress struct {
	Joined atomic.Int64
	Total  atomic.Int64
}

// Observed is the run's measured resource costs: what Result reports and
// what Run.Finish feeds the estimator that priced the run.
type Observed = costmodel.Observation

// ObsCollector accumulates Observed fields from the engines' concurrent
// workers (atomically, nanosecond-granular). A nil collector is a valid
// no-op, so call sites stay unconditional.
type ObsCollector struct {
	fetchBytes, fetchNanos           atomic.Int64
	buildTuples, buildNanos          atomic.Int64
	probeTuples, probeNanos          atomic.Int64
	spillWriteBytes, spillWriteNanos atomic.Int64
	spillReadBytes, spillReadNanos   atomic.Int64
}

// Fetch records one storage→compute transfer.
func (o *ObsCollector) Fetch(bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	o.fetchBytes.Add(bytes)
	o.fetchNanos.Add(int64(d))
}

// Build records one hash-table build of ops operations.
func (o *ObsCollector) Build(ops int64, d time.Duration) {
	if o == nil {
		return
	}
	o.buildTuples.Add(ops)
	o.buildNanos.Add(int64(d))
}

// Probe records one probe pass of ops operations.
func (o *ObsCollector) Probe(ops int64, d time.Duration) {
	if o == nil {
		return
	}
	o.probeTuples.Add(ops)
	o.probeNanos.Add(int64(d))
}

// SpillWrite records one scratch bucket write.
func (o *ObsCollector) SpillWrite(bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	o.spillWriteBytes.Add(bytes)
	o.spillWriteNanos.Add(int64(d))
}

// SpillRead records one scratch bucket read.
func (o *ObsCollector) SpillRead(bytes int64, d time.Duration) {
	if o == nil {
		return
	}
	o.spillReadBytes.Add(bytes)
	o.spillReadNanos.Add(int64(d))
}

// Snapshot converts the accumulated counters to an Observed record.
func (o *ObsCollector) Snapshot() Observed {
	if o == nil {
		return Observed{}
	}
	const ns = float64(time.Second)
	return Observed{
		FetchBytes:        o.fetchBytes.Load(),
		FetchSeconds:      float64(o.fetchNanos.Load()) / ns,
		BuildTuples:       o.buildTuples.Load(),
		BuildSeconds:      float64(o.buildNanos.Load()) / ns,
		ProbeTuples:       o.probeTuples.Load(),
		ProbeSeconds:      float64(o.probeNanos.Load()) / ns,
		SpillWriteBytes:   o.spillWriteBytes.Load(),
		SpillWriteSeconds: float64(o.spillWriteNanos.Load()) / ns,
		SpillReadBytes:    o.spillReadBytes.Load(),
		SpillReadSeconds:  float64(o.spillReadNanos.Load()) / ns,
	}
}

// OpStat is one operator's accounting in a streaming plan: rows/batches/
// bytes that crossed its Next boundary and the wall-clock time spent
// inside it. PeakBytes is operator-specific resident memory (e.g. the
// join reorder buffer's high-water mark, or a sort's accumulated input).
type OpStat struct {
	Op        string
	Rows      int64
	Batches   int64
	Bytes     int64
	PeakBytes int64
	Busy      time.Duration
	// SpillBytes/SpillReadBytes are the scratch bytes this operator wrote
	// and read back while running out-of-core; SpillParts counts the
	// scratch files (sort runs, aggregation partitions, join build
	// partitions) it created. All zero for in-memory execution.
	SpillBytes     int64
	SpillReadBytes int64
	SpillParts     int64
}

// DefaultPrefetch is the lookahead depth the command-line tools use when
// the -prefetch flag is not given: deep enough to overlap the next edge's
// two fetches with the current edge's compute, shallow enough to stay
// within the paper's cache memory assumption.
const DefaultPrefetch = 2

// Validate checks the request.
func (r Request) Validate() error {
	if r.LeftTable == "" || r.RightTable == "" {
		return fmt.Errorf("engine: both table names are required")
	}
	if len(r.JoinAttrs) == 0 {
		return fmt.Errorf("engine: no join attributes")
	}
	if err := r.Filter.Validate(); err != nil {
		return err
	}
	return nil
}

// JoinCounts is a plain snapshot of hashjoin.Stats.
type JoinCounts struct {
	TuplesBuilt  int64
	TuplesProbed int64
	Matches      int64
}

// Result reports one execution.
type Result struct {
	Engine string
	// Tuples is the number of result tuples produced.
	Tuples int64
	// Elapsed is the wall-clock execution time (the quantity the paper's
	// figures plot).
	Elapsed time.Duration
	// Join aggregates hash build/probe counts across all QES instances.
	Join JoinCounts
	// Cache, Traffic and Health are what the cluster's counters moved
	// between the run's start and its end (cluster.Account): sub-table
	// cache statistics across compute nodes (GH uses no cache), byte
	// accounting, and fault-tolerance activity (retries, failovers,
	// breaker trips, recoveries, rebuilds). An exclusive run's window
	// holds only itself; a shared run's also holds whatever overlapped it.
	Cache   cache.Stats
	Traffic cluster.Traffic
	Health  cluster.HealthStats
	// Collected holds per-joiner result sub-tables when Request.Collect.
	Collected []*tuple.SubTable
	// unitEnds[p] is the end row in Collected[p] of each of part p's
	// schedule units (see Sink).
	unitEnds [][]int
	// Phases records coarse phase durations (engine-specific keys, e.g.
	// "partition" and "bucketjoin" for GH).
	Phases map[string]time.Duration
	// UnitsJoined/UnitsTotal count join schedule units (IJ edges, GH
	// top-level bucket pairs) executed vs scheduled. A full run has
	// UnitsJoined == UnitsTotal; an early-terminated streaming query
	// reports the fraction it actually joined.
	UnitsJoined int64
	UnitsTotal  int64
	// Operators holds per-operator statistics when the query ran through
	// a streaming plan (internal/plan); nil for direct engine runs.
	Operators []OpStat
	// Observed is the run's measured resource costs.
	Observed Observed
}

// Released returns a collected run's rows as one table, in the order a
// Sink releases the same run: schedule unit by schedule unit, round-robin
// over the parts. Nil when nothing was collected.
func (r *Result) Released() *tuple.SubTable {
	if len(r.Collected) == 0 {
		return nil
	}
	out := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, r.Collected[0].Schema, int(r.Tuples))
	from := make([]int, len(r.Collected))
	for u, more := 0, true; more; u++ {
		more = false
		for p, ends := range r.unitEnds {
			if u < len(ends) {
				// Every part's table has the run's output schema.
				_ = out.AppendAll(r.Collected[p].Slice(from[p], ends[u]))
				from[p], more = ends[u], true
			}
		}
	}
	return out
}

// EffectiveProject returns the pushdown list the engines apply to each
// base table: the demanded attributes plus the join keys (which the
// engines need for hashing). Nil — fetch everything — when the demand is
// nil or empty.
func (r Request) EffectiveProject() []string {
	if len(r.Project) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(r.Project)+len(r.JoinAttrs))
	out := make([]string, 0, len(r.Project)+len(r.JoinAttrs))
	for _, lists := range [][]string{r.Project, r.JoinAttrs} {
		for _, a := range lists {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// ProjectedSchema returns schema restricted to the projected attributes
// (in schema order); project == nil keeps everything, an empty list
// nothing.
func ProjectedSchema(schema tuple.Schema, project []string) tuple.Schema {
	if project == nil {
		return schema
	}
	want := make(map[string]bool, len(project))
	for _, p := range project {
		want[p] = true
	}
	var attrs []tuple.Attr
	for _, a := range schema.Attrs {
		if want[a.Name] {
			attrs = append(attrs, a)
		}
	}
	return tuple.Schema{Attrs: attrs}
}

// Engine executes resolved join-view requests on a cluster.
type Engine interface {
	// Name returns the engine identifier ("ij" or "gh").
	Name() string
	// Run joins exactly the chunk sets the inputs carry — an engine never
	// goes back to the catalog. Non-shared runs start from a cold cluster
	// (caches emptied, backlogs cleared). Every run reports the difference
	// of the cluster's counters across it, so an exclusive run's
	// Result.Traffic covers exactly that run. Engines check ctx
	// between work items (edges, chunks, buckets) and propagate it into
	// sub-table fetches, so a cancelled or deadline-expired query returns
	// ctx.Err() mid-join instead of running to completion.
	Run(ctx context.Context, cl *cluster.Cluster, in *Inputs) (*Result, error)
}
