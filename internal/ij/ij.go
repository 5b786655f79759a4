// Package ij implements the page-level Indexed Join QES.
//
// The sub-table connectivity graph (page-level join index, which the
// catalog keeps) gives the candidate sub-table pairs. Scheduling follows
// the paper's two-stage strategy (congraph.Graph.Schedules, kept with the
// graph): connected components are dealt round-robin to compute-node QES
// instances so each gets the same amount of work, then each instance sorts
// its local id pairs lexicographically by ((i1,j1),(i2,j2)). Sub-tables are
// fetched from BDS instances through the per-node LRU Caching Service; the
// lexicographic order makes all edges of one left sub-table consecutive, so
// a hash table is built only once per left sub-table.
//
// In shared mode what a joiner derives from the sub-tables outlives the
// statement, beside them in its node's cache. A left sub-table's rows,
// decoded from an encoded frame, are offered under its key plus the join
// attributes; after a whole in-memory probe, the edge's match pairs —
// (left row, right row), in probe order — under that key plus the right
// sub-table's. A later statement on the same node with the same filter,
// projection and join attributes finds an edge's pairs and only gathers
// the columns its statement demands: the left ones from the kept rows,
// the right payload ones from the right carrier, which it decodes without
// its join keys or any column the statement does not read. It packs no
// key, looks nothing up and builds nothing. An edge without pairs builds
// the left's hash table over those rows, once per left, and probes it;
// the table lives in the joiner's arena and dies with the left. A right
// carrier that is probed is decoded whole, into the joiner's one reused
// buffer.
package ij

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/congraph"
	"sciview/internal/engine"
	"sciview/internal/fault"
	"sciview/internal/hashjoin"
	"sciview/internal/metadata"
	"sciview/internal/scratch"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Engine is the Indexed Join QES. The zero value is ready to use.
type Engine struct{}

// New returns an Indexed Join engine.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "ij" }

// Run implements engine.Engine. Cancellation is observed between scheduled
// edges and inside sub-table fetches. The page-level join index and the
// schedule are read before the run's clock starts: the paper treats the
// index as pre-computed, and the catalog keeps both — a repeated
// statement reads its chunk sets' graph and its two-stage schedule
// (congraph.Graph.Schedules) as the last one left them.
func (e *Engine) Run(ctx context.Context, cl *cluster.Cluster, in *engine.Inputs) (*engine.Result, error) {
	graph, err := in.Graph()
	if err != nil {
		return nil, err
	}
	schedules := graph.Schedules(len(cl.Compute))
	run, err := engine.Begin(ctx, cl, in)
	if err != nil {
		return nil, err
	}
	defer run.Close()

	// Publish the schedule size so streaming consumers can report the
	// fraction of edges an early-terminated query actually joined. Joined
	// counts executed edges, so fault-driven replays can push it past
	// Total; an undisturbed full run ends with Joined == Total.
	for _, sched := range schedules {
		run.Req.Progress.Total.Add(int64(len(sched)))
	}

	// A slot's executor is initially the compute node of the same index. If
	// that node dies mid-run the stage-1 plan is revised in place: the
	// slot's whole schedule re-runs on the next surviving node. Edges replay
	// in the same order and survivors' caches stay valid (warm, even, for
	// sub-tables the slot shares with their own schedules), so the recovered
	// output is byte-identical to an undisturbed run.
	execs := make([]int, len(schedules))
	for slot := range execs {
		execs[slot] = slot
	}
	place := func(slot int, died bool) (int, error) {
		if died {
			in.Req.Trace.Span(fmt.Sprintf("joiner-%d", execs[slot]), trace.KindRecover,
				fmt.Sprintf("compute-%d died, slot %d re-assigned", execs[slot], slot),
				time.Now(), 0, int64(len(schedules[slot])))
		}
		if cl.ComputeDown(execs[slot]) {
			next, ok := run.NextAlive(execs[slot])
			if !ok {
				return 0, fmt.Errorf("ij: slot %d: no compute nodes left", slot)
			}
			execs[slot] = next
		}
		return execs[slot], nil
	}
	err = run.JoinParts(ctx, place, func(j *engine.Joiner) error {
		return runJoiner(ctx, j, schedules[j.Part])
	})
	if err != nil {
		return nil, err
	}

	return run.Finish(e.Name()), nil
}

// side is one join side's fetch parameters: the pushed-down filter and the
// cache signature it (with the projection) keys sub-tables under.
type side struct {
	filter *metadata.Range
	sig    uint64
}

// runJoiner executes one slot's schedule on the joiner's compute node.
//
// Every edge demands both carriers from the cache, so the cache's hit and
// miss counts are those of the strict fetch→build→probe loop. A left has
// one source of rows, taken on its first edge and held for its
// consecutive ones (leftRows): a row-major carrier's own, else rows a
// statement kept in the node cache, else the carrier decoded and offered
// to the cache. In a shared run an edge then looks for its match pairs
// and, when the node holds them and they index both carriers' rows,
// gathers. Otherwise it builds the left's hash table over its rows — on
// the first of the left's edges that needs it — probes it, and offers the
// edge's pairs.
//
// With Request.Prefetch > 0 the joiner overlaps I/O with compute: before
// working edge i it issues background fetches for this edge's right
// sub-table and both sub-tables of edges i+1..i+Prefetch. Stage-2's
// lexicographic edge order makes the lookahead exact — the fetches issued
// are precisely the ones the strict loop would issue next — and the Flight
// singleflight makes the foreground fetch join the in-flight prefetch
// rather than duplicate it. Prefetch failures are swallowed here: the
// foreground fetch retries and surfaces any real error, and on early exit
// (error, cancellation, injected crash) the deferred cancel-and-wait below
// reaps every in-flight prefetch before the slot is re-assigned.
func runJoiner(ctx context.Context, j *engine.Joiner, sched []congraph.Step) error {
	cn := j.Cluster.Compute[j.Exec]
	// Scratch for build sides that overflow the memory cap; reaped when the
	// attempt ends, however it ends.
	mgr := scratch.NewManager(cn.Scratch,
		fmt.Sprintf("ij/r%d/s%d", spillSeq.Add(1), j.Part), j.Node, j.Req.Trace, j.Obs)
	defer mgr.ReleaseAll()
	ls := side{&j.LeftFilter, cluster.Signature(&j.LeftFilter, j.Project)}
	rs := side{&j.RightFilter, cluster.Signature(&j.RightFilter, j.Project)}

	depth := j.Req.Prefetch
	var (
		pwg    sync.WaitGroup
		pctx   context.Context
		issued map[cluster.FetchKey]struct{}
	)
	if depth > 0 {
		var pcancel context.CancelFunc
		pctx, pcancel = context.WithCancel(ctx)
		defer pwg.Wait() // runs after pcancel: cancel, then reap
		defer pcancel()
		issued = make(map[cluster.FetchKey]struct{})
	}
	// prefetch launches one background fetch per distinct key; issued is
	// only touched by the foreground loop. The background path peeks the
	// cache stat-free and joins the Flight group, so the cache hit/miss
	// counters keep reflecting foreground demand only: a sub-table still
	// in flight when the joiner needs it counts as the same single miss
	// the strict loop would record.
	prefetch := func(id tuple.ID, sd side) {
		key := cluster.FetchKey{ID: id, Sig: sd.sig}
		if _, done := issued[key]; done {
			return
		}
		issued[key] = struct{}{}
		if _, ok := cn.Cache.Peek(key); ok {
			return
		}
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			start := time.Now()
			f, err := flightFetch(pctx, j, key, sd.filter)
			if err != nil {
				return
			}
			j.Req.Trace.Span(j.Node, trace.KindPrefetch, id.String(), start,
				int64(f.DecodedBytes()), int64(f.NumRows()))
		}()
	}

	// The current left sub-table — stage 2's order makes all edges of one
	// left consecutive — with its rows and whether its hash table is the
	// one in the joiner's arena.
	var cur struct {
		id    tuple.ID
		rows  *tuple.SubTable
		built bool
	}
	join := cluster.JoinSig(j.Req.JoinAttrs)
	execNode := fault.ComputeNode(j.Exec)
	for i, ed := range sched {
		if err := ctx.Err(); err != nil {
			return err
		}
		// One scheduled edge is one countable operation on the executor:
		// the chaos schedule can crash the node here, mid-schedule.
		if err := j.Cluster.Config.Faults.Op(execNode, fault.OpEdge); err != nil {
			return err
		}
		if depth > 0 {
			prefetch(ed.Right, rs) // overlaps this edge's build
			for d := 1; d <= depth && i+d < len(sched); d++ {
				prefetch(sched[i+d].Left, ls)
				prefetch(sched[i+d].Right, rs)
			}
		}
		// The carrier is fetched on every edge — the cache sees exactly the
		// strict loop's demand sequence — but its rows are taken once per
		// left.
		lf, err := cachedFetch(ctx, j, ed.Left, ls)
		if err != nil {
			return err
		}
		lkey := cluster.FetchKey{ID: ed.Left, Sig: ls.sig, Join: join}
		if cur.rows == nil || cur.id != ed.Left {
			cur.id, cur.built = ed.Left, false
			if cur.rows, err = leftRows(j, lkey, lf); err != nil {
				return err
			}
		}
		var leftLabel, rightLabel string
		if j.Req.Trace.Enabled() {
			leftLabel, rightLabel = ed.Left.String(), ed.Right.String()
		}
		pkey := lkey.PairKey(cluster.FetchKey{ID: ed.Right, Sig: rs.sig})
		build := func() (err error) {
			if !cur.built {
				err = j.Build(leftLabel, cur.rows)
				cur.built = err == nil
			}
			return err
		}
		// A build side over its admission share joins out-of-core; no hash
		// table is built or reused for it, and no pairs are looked up.
		fits := j.Fits(lf.DecodedBytes())
		var pairs *hashjoin.Pairs
		if fits && j.Req.Shared {
			if f, ok := cn.Cache.Touch(pkey); ok {
				pairs = f.Pairs()
			}
		}
		// An edge that will probe builds before its right fetch, which a
		// prefetch may be overlapping.
		if fits && pairs == nil {
			if err := build(); err != nil {
				return err
			}
		}
		rf, err := cachedFetch(ctx, j, ed.Right, rs)
		if err != nil {
			return err
		}
		if pairs != nil && pairs.Indexes(cur.rows.NumRows(), rf.NumRows()) {
			err = j.Gather(cur.rows, pairs, rightLabel, rf)
		} else {
			var right *tuple.SubTable
			if right, err = decodeRight(j, ed.Right, rf); err != nil {
				return err
			}
			if fits {
				// Pairs that do not index these carriers cannot arise
				// while chunk ids are never reused; such an edge probes.
				if err = build(); err == nil {
					if err = j.Probe(rightLabel, right); err == nil {
						j.KeepPairs(pkey)
					}
				}
			} else {
				// The pair's label also names its scratch files, traced or
				// not.
				err = j.JoinPair(mgr, ed.Left.String()+"x"+ed.Right.String(), cur.rows, right)
			}
		}
		if err != nil {
			return err
		}
		if err := j.Emit(ed.Last); err != nil {
			return err
		}
	}
	return nil
}

// leftRows returns the rows of the left carrier lf: a row-major frame's
// own; else the rows a statement kept under key in the node cache — a
// lookup that leaves the cache's hit/miss counters alone — else lf
// decoded, and offered to the cache.
func leftRows(j *engine.Joiner, key cluster.FetchKey, lf *cluster.Fetched) (*tuple.SubTable, error) {
	if !lf.Encoded() {
		return lf.SubTable()
	}
	if f, ok := j.Cluster.Compute[j.Exec].Cache.Touch(key); ok {
		return f.SubTable()
	}
	rows, err := decode(key.ID, lf)
	if err != nil {
		return nil, err
	}
	j.Keep(key, rows)
	return rows, nil
}

// spillSeq namespaces the scratch files of concurrent joiners.
var spillSeq atomic.Int64

// cachedFetch consults the joiner's Caching Service before asking the
// owning BDS instance for the sub-table. Concurrent misses on one key —
// several shared queries needing the same sub-table at once — collapse
// into a single BDS fetch through the node's Flight deduplicator. The
// cache holds wire-form carriers (compressed under the colenc codec), and a
// carrier is what this returns: decoding it back to rows (Fetched.SubTable;
// exact, so results never depend on the negotiated format) is the
// caller's, once per use of the rows.
func cachedFetch(ctx context.Context, j *engine.Joiner, id tuple.ID, sd side) (*cluster.Fetched, error) {
	key := cluster.FetchKey{ID: id, Sig: sd.sig}
	if f, ok := j.Cluster.Compute[j.Exec].Cache.Get(key); ok {
		return f, nil
	}
	return flightFetch(ctx, j, key, sd.filter)
}

// decode and decodeRight are the places a joiner turns a whole carrier
// back into rows — under the colenc codec, a full decode of the cached
// frame per call. A left carrier's rows may outlive the edge in the node
// cache, so they are decoded afresh; a right carrier's are decoded into
// the joiner's buffer (engine.Joiner.Decode).
func decode(id tuple.ID, f *cluster.Fetched) (*tuple.SubTable, error) {
	if testDecoded != nil {
		testDecoded(id)
	}
	return f.SubTable()
}

func decodeRight(j *engine.Joiner, id tuple.ID, f *cluster.Fetched) (*tuple.SubTable, error) {
	if testDecoded != nil {
		testDecoded(id)
	}
	return j.Decode(f)
}

// testDecoded, set only by tests, sees every decode.
var testDecoded func(id tuple.ID)

// flightFetch is cachedFetch after the demand-path cache probe: it joins
// the node's Flight group for key and, as leader, fetches from the owning
// BDS and populates the cache. Prefetchers enter here directly so their
// speculative lookups never touch the cache's hit/miss counters.
func flightFetch(ctx context.Context, j *engine.Joiner, key cluster.FetchKey, filter *metadata.Range) (*cluster.Fetched, error) {
	cn := j.Cluster.Compute[j.Exec]
	f, _, err := cn.Flight.Do(ctx, key, func() (*cluster.Fetched, error) {
		// Another query may have populated the cache while this caller
		// was queued behind a leader that then failed or was cancelled.
		// Peek is one racy-window-free lookup (a single critical section,
		// unlike the old Contains-then-Get pair, which could observe the
		// entry and then lose it to an eviction between the two calls) and
		// is stat-free, so the common path's miss accounting stays
		// one-miss-per-fetch: only the demand-path Get above counts.
		if f, ok := cn.Cache.Peek(key); ok {
			return f, nil
		}
		start := time.Now()
		f, err := j.Cluster.Fetch(ctx, j.Exec, key.ID, filter, j.Project)
		if err != nil {
			return nil, err
		}
		// Only the singleflight leader reaches here, so this times the
		// true wire transfer once per fetch: cache hits and piggybacked
		// followers never dilute the calibrated bandwidth. Decoded bytes
		// over wire-busy time makes compression show up as a faster
		// effective link, which is exactly how the transfer term prices it.
		j.Obs.Fetch(int64(f.DecodedBytes()), time.Since(start))
		j.Req.Trace.Span(j.Node, trace.KindFetch, key.ID.String(), start, int64(f.DecodedBytes()), int64(f.NumRows()))
		// Charge the stored (possibly compressed) size, not the decoded
		// record size: admission and eviction track resident reality, and
		// under the colenc codec more sub-tables fit per node.
		cn.Cache.Put(key, f, int64(f.StoredBytes()))
		return f, nil
	})
	return f, err
}

// verify interface compliance.
var _ engine.Engine = (*Engine)(nil)

// CacheBytesFor returns the per-joiner cache capacity satisfying the
// paper's memory assumption for ideal IJ behaviour: at least
// 2·c_R·RS_R + b·c_S·RS_S bytes (two left sub-tables plus one component's
// right sub-tables).
func CacheBytesFor(cR int64, rsR int, b int64, cS int64, rsS int) int64 {
	return 2*cR*int64(rsR) + b*cS*int64(rsS)
}

// String describes the engine.
func (e *Engine) String() string { return "IndexedJoin" }
