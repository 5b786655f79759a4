// Package service implements the concurrent query service: a
// multi-client execution layer above the two Query Execution Systems.
// Callers submit join-view requests from any number of goroutines; the
// service plans each one (choosing IJ or GH by the cost models), holds it
// in a priority/FIFO admission queue until capacity is available, and runs
// it in shared mode — no cluster reset, caches kept warm across queries,
// and concurrent sub-table fetches for the same data collapsed into one
// BDS transfer by the per-node singleflight groups.
//
// Admission is governed by two limits: a maximum number of in-flight
// queries, and a memory budget charged per query with a working-set
// estimate (the cost model's build side plus one streaming sub-table per
// joiner, or a SQL plan's resident-set bound). A query whose estimate
// exceeds the whole budget runs degraded: it gets one admission slot's
// share of the budget (MemoryBudget / MaxInFlight), its spilling
// operators stay within that share, and it is charged at most the share,
// so MaxInFlight degraded queries run side by side. Cancellation is
// first-class: a context cancelled while queued removes the entry
// immediately; one cancelled while running propagates through the
// engine's fetch path and frees the slot for the next waiter.
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/costmodel"
	"sciview/internal/engine"
	"sciview/internal/metrics"
	"sciview/internal/planner"
	"sciview/internal/repair"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Errors returned by Submit.
var (
	// ErrClosed reports a submission to (or drained out of) a closed
	// service.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull reports that the admission queue is at MaxQueue.
	ErrQueueFull = errors.New("service: queue full")
	// ErrOverBudget reports a Strict-mode rejection: the query's
	// working-set estimate exceeds the memory budget and degraded
	// (spilling) execution is disabled.
	ErrOverBudget = errors.New("service: query estimate exceeds memory budget")
)

// Config tunes the admission controller.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (0 = default 4).
	MaxInFlight int
	// MemoryBudget bounds the summed working-set estimates of in-flight
	// queries, in bytes (0 = unlimited). A single query estimated above
	// the budget is admitted in degraded mode with one slot's share of
	// it, MemoryBudget / MaxInFlight: its plan is stamped with the share
	// so blocking operators (sort, aggregation, join builds) spill to
	// scratch disks instead of holding their full working set, and the
	// admission charge drops to the degraded (spilling) resident
	// estimate, capped at the share. MaxInFlight degraded queries so fit
	// the budget together. Results are byte-identical to in-memory
	// execution.
	MemoryBudget int64
	// Strict disables degraded admission: a query whose estimate exceeds
	// MemoryBudget is rejected with ErrOverBudget instead of being run
	// out-of-core.
	Strict bool
	// MaxQueue bounds waiting submissions; excess ones fail fast with
	// ErrQueueFull (0 = unlimited).
	MaxQueue int
	// Force is an explicit override of the planner's per-query cost-model
	// engine choice: "ij" or "gh" pins every submission to that engine.
	// The default "" lets the Estimator decide per query — IJ vs GH from
	// the Section 5 models under the current (online-calibrated)
	// constants. Leave it empty unless an experiment needs a fixed engine.
	Force string
	// AlphaBuild and AlphaLookup preset the static layer's cost-model CPU
	// constants; zero triggers a one-time calibration in New. The online
	// calibration layer refines them from observed runs either way.
	AlphaBuild  float64
	AlphaLookup float64
	// NoCalibrate pins the planner to the static configuration layer:
	// observed run costs are not folded back and decisions always use the
	// configured simio rates. Default false (adaptive planning on).
	NoCalibrate bool
	// Prefetch is the server-side default for engine.Request.Prefetch,
	// applied to submitted queries that leave it zero (a query may still
	// set its own depth).
	Prefetch int
	// Metrics, when set, registers the service's live observability
	// surface: admission outcome counters, queue-depth / in-flight /
	// memory-budget gauges, and queue-wait plus end-to-end query latency
	// histograms. Nil keeps the hot paths on no-op instruments.
	Metrics *metrics.Registry
}

// Query is one submission.
type Query struct {
	Req engine.Request
	// Priority orders waiting queries: higher runs sooner; ties are FIFO.
	Priority int
}

// SQL is one SQL-statement submission for SubmitSQL.
type SQL struct {
	Query string
	// Priority orders waiting queries: higher runs sooner; ties are FIFO.
	Priority int
}

// Response reports one executed query.
type Response struct {
	Result   *engine.Result
	Decision *planner.Decision
	// Rows holds the result rows (SubmitSQL only).
	Rows *tuple.SubTable
	// QueueWait is the time spent in the admission queue.
	QueueWait time.Duration
	// Weight is the working-set estimate charged against the budget.
	Weight int64
	// Degraded reports that the query ran out-of-core: its estimate
	// exceeded the memory budget, so its operators were budgeted to
	// spill and the charge above is the degraded resident estimate.
	Degraded bool
}

// Stats is the service-level accounting snapshot.
type Stats struct {
	Submitted int64 // accepted into the queue
	Admitted  int64 // dispatched to an engine
	Rejected  int64 // refused: queue full, service closed, or over budget (Strict)
	Cancelled int64 // context ended while queued or running
	Completed int64
	Degraded  int64 // admitted in degraded (spilling) mode
	Failed    int64 // engine error other than cancellation
	// Recovered counts completed queries whose execution window saw
	// fault-recovery activity (retries, failovers, node recoveries). Under
	// concurrency a neighbor's recovery can be attributed here, so treat it
	// as "completed despite faults", not an exact per-query count.
	Recovered int64

	QueuePeak    int // max queue length observed
	InFlightPeak int // max concurrent queries observed

	// QueueWait accumulates admission waits of admitted queries.
	QueueWait time.Duration

	// Dedup aggregates the compute nodes' singleflight counters: Leads
	// is actual BDS fetches led, Shared is fetches satisfied by joining
	// another query's in-flight fetch.
	Dedup cache.FlightStats

	// Health is the cluster's cumulative fault-tolerance accounting
	// (retries, failovers, breaker trips, recoveries, rebuilds).
	Health cluster.HealthStats

	// Repair is the storage tier's self-healing accounting (catch-up
	// replays, re-replicated chunks, under-replication exposure, per-node
	// lifecycle and version lag). Zero when no repair manager is attached.
	Repair repair.Stats
}

// Service is a running concurrent query service over one cluster.
type Service struct {
	cl  *cluster.Cluster
	pl  *planner.Planner
	cfg Config
	rep *repair.Manager // optional; set via AttachRepair

	mu       sync.Mutex
	drained  *sync.Cond // signaled when inflight drops to zero
	queue    waiterHeap
	seq      int64
	inflight int
	memUsed  int64
	closed   bool
	stats    Stats
	met      svcMetrics
}

// svcMetrics holds the service's live-registry histograms (nil no-ops
// when Config.Metrics is unset). The outcome counters are sampled from
// Stats at scrape time.
type svcMetrics struct {
	queueWait  *metrics.Histogram
	runLatency *metrics.Histogram
}

// New assembles a service over a cluster. The cost-model CPU constants
// are calibrated once here (unless preset in cfg), so concurrent Submits
// never race on planner state.
func New(cl *cluster.Cluster, cfg Config) *Service {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.AlphaBuild <= 0 || cfg.AlphaLookup <= 0 {
		cfg.AlphaBuild, cfg.AlphaLookup = costmodel.Calibrate(1 << 16)
	}
	pl := planner.New()
	pl.AlphaBuild = cfg.AlphaBuild
	pl.AlphaLookup = cfg.AlphaLookup
	pl.Force = cfg.Force
	if cfg.NoCalibrate {
		pl.Est = nil
	} else {
		pl.Est.AttachMetrics(cfg.Metrics)
	}
	s := &Service{cl: cl, pl: pl, cfg: cfg}
	s.drained = sync.NewCond(&s.mu)
	// Nil-safe: with cfg.Metrics == nil every handle is a no-op.
	reg := cfg.Metrics
	s.met = svcMetrics{
		queueWait:  reg.Histogram("sciview_queue_wait_seconds", "Admission queue wait of admitted queries.", nil),
		runLatency: reg.Histogram("sciview_query_seconds", "End-to-end execution latency of admitted queries.", nil),
	}
	for _, o := range []struct {
		outcome string
		n       *int64
	}{
		{"submitted", &s.stats.Submitted},
		{"admitted", &s.stats.Admitted},
		{"rejected", &s.stats.Rejected},
		{"cancelled", &s.stats.Cancelled},
		{"completed", &s.stats.Completed},
		{"failed", &s.stats.Failed},
		{"degraded", &s.stats.Degraded},
	} {
		reg.CounterFunc("sciview_queries_total", "Query submissions by outcome.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(*o.n)
		}, "outcome", o.outcome)
	}
	reg.GaugeFunc("sciview_queue_depth", "Queries waiting for admission.", func() float64 {
		return float64(s.QueueLen())
	})
	reg.GaugeFunc("sciview_inflight", "Queries currently executing.", func() float64 {
		return float64(s.InFlight())
	})
	reg.GaugeFunc("sciview_mem_used_bytes", "Working-set estimate bytes charged by in-flight queries.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.memUsed)
	})
	return s
}

// Submit plans, queues and executes one query, blocking until it
// completes, fails, or ctx ends. It is safe for any number of concurrent
// callers. The request is always run in shared mode, so Result.Traffic,
// Result.Cache and Result.Health report what the cluster's counters moved
// during the run, including the share of any query that overlapped it.
func (s *Service) Submit(ctx context.Context, q Query) (*Response, error) {
	// Resolving pins the query to the catalog version current at submission
	// (unless the caller pinned one itself) and fixes its chunk sets, so an
	// append batch that commits while it queues never reaches the result.
	in, err := engine.Resolve(s.cl.Catalog, q.Req)
	if err != nil {
		return nil, err
	}
	eng, dec, err := s.pl.Decide(s.cl, in)
	if err != nil {
		return nil, err
	}
	req := &in.Req
	s.stampDefaults(req)
	return s.execute(ctx, job{
		pri: q.Priority, name: eng.Name(), rec: req.Trace,
		weight: rawWeight(dec.Params),
		// The engine bounds its build sides to the share (spilling
		// oversized partitions through scratch), so the charge is the
		// share, not the unbounded working set.
		degrade: func(share int64) int64 {
			if req.MemoryBudget == 0 || req.MemoryBudget > share {
				req.MemoryBudget = share
			}
			return share
		},
		run: func(ctx context.Context) (*Response, int64, error) {
			res, err := eng.Run(ctx, s.cl, in)
			if err != nil {
				return nil, 0, err
			}
			return &Response{Result: res, Decision: dec}, res.Tuples, nil
		},
	})
}

// Executor returns a SQL executor over the service's cluster that shares
// the service's pre-calibrated planner (CPU constants fixed in New, Force
// applied), so concurrent SubmitSQL calls never race on planner state.
// Define views through it, then pass it to SubmitSQL.
func (s *Service) Executor() *planner.Executor {
	ex := planner.NewExecutor(s.cl)
	ex.Planner = s.pl
	ex.Metrics = s.cfg.Metrics
	return ex
}

// SubmitSQL parses, plans, queues and executes one SQL SELECT through the
// streaming plan layer. The statement is lowered before admission so the
// memory budget is charged with the plan's own resident-set bound — which
// covers scans, blocking sorts and aggregation, not just the join working
// set the cost model prices. Join-backed plans run in shared mode with the
// service's prefetch default, exactly like Submit.
//
// ex must come from Executor (or otherwise share a planner whose CPU
// constants are already set): a planner that self-calibrates on first use
// is not safe under concurrent submissions.
func (s *Service) SubmitSQL(ctx context.Context, ex *planner.Executor, q SQL) (*Response, error) {
	l, err := ex.Lower(q.Query)
	if err != nil {
		return nil, err
	}
	name := "scan"
	if l.Join != nil {
		s.stampDefaults(&l.Join.In.Req)
		name = l.Decision.Chosen
	}
	return s.execute(ctx, job{
		pri: q.Priority, name: name, rec: ex.Trace,
		weight: l.Plan.MemoryEstimate(),
		// Stamp the plan with the share so its blocking operators run
		// out-of-core within it, and charge the degraded (spilling)
		// resident estimate instead of running the query alone at full
		// width.
		degrade: func(share int64) int64 {
			l.Plan.SetBudget(share)
			return l.Plan.DegradedEstimate()
		},
		run: func(ctx context.Context) (*Response, int64, error) {
			out, err := ex.ExecLowered(ctx, l)
			if err != nil {
				return nil, 0, err
			}
			return &Response{Result: out.Result, Decision: out.Decision, Rows: out.Rows},
				int64(out.Rows.NumRows()), nil
		},
	})
}

// stampDefaults puts a join request in shared mode and applies the
// server-side prefetch default where the query left it zero.
func (s *Service) stampDefaults(req *engine.Request) {
	req.Shared = true
	if req.Prefetch == 0 {
		req.Prefetch = s.cfg.Prefetch
	}
}

// job is one submission reduced to what admission and accounting need;
// Submit and SubmitSQL differ only in how they fill it.
type job struct {
	pri  int
	name string          // engine name on the service's trace spans
	rec  *trace.Recorder // may be nil
	// weight is the working-set estimate at full (in-memory) width.
	weight int64
	// degrade switches the job to out-of-core execution within share, one
	// admission slot's part of the budget, and returns the resident
	// estimate to charge instead of weight (execute caps it at share).
	degrade func(share int64) int64
	// run executes the admitted job, returning the response (Result,
	// Decision, Rows) and the number of rows the statement produced.
	run func(ctx context.Context) (*Response, int64, error)
}

// execute is the one path from a weighed job to its Response: degrade or
// reject an over-budget estimate, wait for admission, run, and account
// the outcome. Results of a degraded run are byte-identical to in-memory
// execution.
func (s *Service) execute(ctx context.Context, j job) (*Response, error) {
	weight, degraded, err := s.weigh(j)
	if err != nil {
		return nil, err
	}
	w := &waiter{pri: j.pri, weight: weight, degraded: degraded, ready: make(chan struct{})}
	queueWait, err := s.admit(ctx, w)
	if err != nil {
		return nil, err
	}
	j.rec.Span("service", trace.KindQueue, j.name, time.Now().Add(-queueWait), weight, 0)
	runStart := time.Now()
	before := healthActivity(s.cl.HealthStats())
	resp, rows, err := j.run(ctx)
	recovered := err == nil && healthActivity(s.cl.HealthStats()) > before
	s.met.runLatency.ObserveSince(runStart)
	s.finish(w, queueWait, err, recovered)
	if err != nil {
		return nil, err
	}
	j.rec.Span("service", trace.KindQuery, j.name, runStart, 0, rows)
	resp.QueueWait, resp.Weight, resp.Degraded = queueWait, weight, degraded
	return resp, nil
}

// weigh returns the charge j is admitted at. A job estimated above the
// budget is degraded to one admission slot's share of it (or rejected
// under Strict) and charged at most that share.
func (s *Service) weigh(j job) (weight int64, degraded bool, err error) {
	weight = max(j.weight, 1)
	if s.cfg.MemoryBudget <= 0 || weight <= s.cfg.MemoryBudget {
		return weight, false, nil
	}
	if s.cfg.Strict {
		s.mu.Lock()
		s.rejectLocked()
		s.mu.Unlock()
		return 0, false, fmt.Errorf("service: estimate %d bytes over budget %d: %w",
			weight, s.cfg.MemoryBudget, ErrOverBudget)
	}
	share := max(s.cfg.MemoryBudget/int64(s.cfg.MaxInFlight), 1)
	return min(max(j.degrade(share), 1), share), true, nil
}

// admit enqueues w and blocks until it is admitted, rejected, or ctx ends,
// returning the time it waited. On success w holds an execution slot the
// caller must release via finish.
func (s *Service) admit(ctx context.Context, w *waiter) (time.Duration, error) {
	enqueued := time.Now()

	s.mu.Lock()
	var refused error
	switch {
	case s.closed:
		refused = ErrClosed
	case s.cfg.MaxQueue > 0 && s.queue.Len() >= s.cfg.MaxQueue:
		refused = ErrQueueFull
	}
	if refused != nil {
		s.rejectLocked()
		s.mu.Unlock()
		return 0, refused
	}
	s.seq++
	w.seq = s.seq
	heap.Push(&s.queue, w)
	s.stats.Submitted++
	if n := s.queue.Len(); n > s.stats.QueuePeak {
		s.stats.QueuePeak = n
	}
	s.dispatchLocked()
	s.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil { // drained out of the queue by Close
			return 0, w.err
		}
	case <-ctx.Done():
		s.mu.Lock()
		if !w.admitted && w.err == nil {
			heap.Remove(&s.queue, w.index)
			s.stats.Cancelled++
			s.mu.Unlock()
			return 0, ctx.Err()
		}
		s.mu.Unlock()
		// Admission (or a Close rejection) raced the cancellation; the
		// ready channel is closed (or about to be).
		<-w.ready
		if w.err != nil {
			return 0, w.err
		}
		s.finish(w, time.Since(enqueued), ctx.Err(), false)
		return 0, ctx.Err()
	}
	return time.Since(enqueued), nil
}

// rawWeight estimates a query's resident working set from the cost-model
// parameters: the build (left) side, which IJ caches and GH buffers
// across the cluster, plus one streaming right sub-table per joiner.
func rawWeight(p costmodel.Params) int64 {
	w := p.T*int64(p.RSR) + int64(p.Nj)*p.CS*int64(p.RSS)
	if w < 1 {
		w = 1
	}
	return w
}

// rejectLocked counts one refused submission — queue full, service closed
// (at submission or while queued), or over budget under Strict. Caller
// holds s.mu.
func (s *Service) rejectLocked() {
	s.stats.Rejected++
}

// dispatchLocked admits queued queries while capacity allows. Caller
// holds s.mu.
func (s *Service) dispatchLocked() {
	for s.queue.Len() > 0 {
		if s.inflight >= s.cfg.MaxInFlight {
			return
		}
		w := s.queue[0]
		if s.cfg.MemoryBudget > 0 && s.inflight > 0 && s.memUsed+w.weight > s.cfg.MemoryBudget {
			return
		}
		heap.Pop(&s.queue)
		w.admitted = true
		s.inflight++
		s.memUsed += w.weight
		s.stats.Admitted++
		if w.degraded {
			s.stats.Degraded++
		}
		if s.inflight > s.stats.InFlightPeak {
			s.stats.InFlightPeak = s.inflight
		}
		close(w.ready)
	}
}

// finish releases an admitted query's slot, accounts its outcome and
// dispatches successors.
func (s *Service) finish(w *waiter, queueWait time.Duration, err error, recovered bool) {
	s.mu.Lock()
	s.inflight--
	s.memUsed -= w.weight
	s.stats.QueueWait += queueWait
	if recovered {
		s.stats.Recovered++
	}
	switch {
	case err == nil:
		s.stats.Completed++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.stats.Cancelled++
	default:
		s.stats.Failed++
	}
	s.dispatchLocked()
	if s.inflight == 0 {
		s.drained.Broadcast()
	}
	s.mu.Unlock()
	s.met.queueWait.Observe(queueWait.Seconds())
}

// healthActivity sums the counters that indicate a run hit (and survived)
// injected or real faults.
func healthActivity(h cluster.HealthStats) int64 {
	return h.Retries + h.Failovers + h.Recoveries + h.Rebuilds
}

// AttachRepair surfaces a repair manager's accounting through the
// service's stats (and stats RPC). The manager's lifecycle stays with the
// caller — attach does not Start or Stop it.
func (s *Service) AttachRepair(m *repair.Manager) {
	s.mu.Lock()
	s.rep = m
	s.mu.Unlock()
}

// Stats snapshots the service counters, including the cluster's fetch
// deduplication and fault-recovery totals.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	rep := s.rep
	s.mu.Unlock()
	st.Dedup = s.cl.FlightStats()
	st.Health = s.cl.HealthStats()
	if rep != nil {
		st.Repair = rep.Stats()
	}
	return st
}

// InFlight reports the number of currently executing queries.
func (s *Service) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// QueueLen reports the number of queries waiting for admission.
func (s *Service) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len()
}

// Close drains the service: new submissions are refused, queries still
// waiting for admission fail with ErrClosed, and Close blocks until every
// in-flight query has finished. It is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		for s.queue.Len() > 0 {
			w := heap.Pop(&s.queue).(*waiter)
			w.err = ErrClosed
			s.rejectLocked()
			close(w.ready)
		}
	}
	for s.inflight > 0 {
		s.drained.Wait()
	}
	return nil
}

// String renders a one-line stats summary.
func (st Stats) String() string {
	total := st.Dedup.Leads + st.Dedup.Shared
	dedup := 0.0
	if total > 0 {
		dedup = float64(st.Dedup.Shared) / float64(total)
	}
	s := fmt.Sprintf(
		"submitted %d admitted %d completed %d failed %d cancelled %d rejected %d | queue peak %d inflight peak %d wait %v | fetch dedup %.0f%% (%d shared / %d led)",
		st.Submitted, st.Admitted, st.Completed, st.Failed, st.Cancelled, st.Rejected,
		st.QueuePeak, st.InFlightPeak, st.QueueWait.Round(time.Millisecond),
		dedup*100, st.Dedup.Shared, st.Dedup.Leads)
	if st.Degraded > 0 {
		s += fmt.Sprintf(" | degraded %d (over budget, spilled)", st.Degraded)
	}
	if healthActivity(st.Health)+st.Health.BreakerTrips > 0 {
		s += fmt.Sprintf(" | health: %d retries %d failovers %d trips %d recoveries %d rebuilds, %d queries recovered",
			st.Health.Retries, st.Health.Failovers, st.Health.BreakerTrips,
			st.Health.Recoveries, st.Health.Rebuilds, st.Recovered)
	}
	if !st.Repair.Zero() {
		s += fmt.Sprintf(" | repair: %d catchups %d chunks %d bytes %d rebuilds %d underreplicated, nodes %v behind %v",
			st.Repair.CatchUps, st.Repair.ChunksRepaired, st.Repair.BytesRepaired,
			st.Repair.ObjectsRebuilt, st.Repair.UnderReplicated,
			st.Repair.NodeStates, st.Repair.VersionsBehind)
	}
	return s
}

// waiter is one queued submission.
type waiter struct {
	pri      int
	seq      int64
	weight   int64
	degraded bool // admitted (if at all) at the degraded, spilling weight
	ready    chan struct{}
	err      error // set before close(ready) when rejected by Close
	admitted bool
	index    int // heap position, for mid-queue removal on cancellation
}

// waiterHeap orders by priority (higher first), then FIFO by sequence.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri {
		return h[i].pri > h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*h = old[:n-1]
	return w
}
