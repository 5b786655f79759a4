// Package gh implements the Grace Hash join QES, modified as in the paper
// so that every joiner node performs its bucket joins independently (no
// network traffic during the bucket-joining phase).
//
// Phase 1 (partition): a QES instance on each storage node contacts the
// local BDS instance for the matching sub-tables of the left table; a hash
// function h1 over the join key routes each record to a compute-node QES
// instance, which applies a second, independent hash h2 to place the record
// in a spill bucket on its local scratch disk. The same procedure is then
// repeated for the right table. Phase 2 (bucket join): each compute node
// reads its bucket pairs back and joins them in memory.
//
// The output order is defined: every bucket block is tagged with the
// storage slot whose scanner shipped it, each slot scans its chunks in
// catalog order, and a bucket reads back grouped by ascending slot — so a
// bucket's rows, and the whole result, are a function of the inputs, not
// of how the concurrent scanners interleaved.
//
// GH is insensitive to how the dataset is partitioned (the connectivity
// graph never enters), but pays the extra write+read I/O of bucket spills —
// exactly the trade the cost models capture.
package gh

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/chunk"
	"sciview/internal/cluster"
	"sciview/internal/colenc"
	"sciview/internal/engine"
	"sciview/internal/fault"
	"sciview/internal/metadata"
	"sciview/internal/scratch"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// Engine is the Grace Hash QES.
type Engine struct {
	// Buckets is the number of spill buckets per joiner per table
	// (h2's range). 0 selects a default that keeps expected bucket size
	// around DefaultBucketBytes.
	Buckets int
}

const (
	// DefaultBucketBytes is the bucket size the default bucket count aims at.
	DefaultBucketBytes = 1 << 20
	// shipRows is the number of records per storage→joiner shipment.
	shipRows = 4096
)

// New returns a Grace Hash engine with default tuning.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (e *Engine) Name() string { return "gh" }

var _ engine.Engine = (*Engine)(nil)

// h1 routes a join key to a joiner group: tuple.Mix under tuple.SaltRoute.
// h2, the bucket, is tuple.Mix under tuple.SaltBucket (the partitioner's
// salt). Distinct salts keep bucket occupancy uniform within a joiner.
func route(key uint64, nj int) int { return int(tuple.Mix(key, tuple.SaltRoute) % uint64(nj)) }

// runSeq distinguishes the scratch-disk namespaces of concurrent shared
// runs: two queries spilling on the same joiner must not append to the
// same bucket objects.
var runSeq atomic.Int64

// ghRun is one execution: the shared runtime state plus what only Grace
// Hash needs — its bucket count, its scratch namespace and the scratch
// managers to reap.
type ghRun struct {
	*engine.Run
	seq     int64
	buckets int

	// Every scratch manager the run mounts (including rebuild remounts) is
	// reaped on exit, so a cancelled or failed run leaves no orphans.
	mgrMu sync.Mutex
	mgrs  []*scratch.Manager
}

func (gr *ghRun) reap() {
	gr.mgrMu.Lock()
	defer gr.mgrMu.Unlock()
	for _, m := range gr.mgrs {
		m.ReleaseAll()
	}
}

// Run implements engine.Engine.
func (e *Engine) Run(ctx context.Context, cl *cluster.Cluster, in *engine.Inputs) (*engine.Result, error) {
	run, err := engine.Begin(ctx, cl, in)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	gr := &ghRun{Run: run, seq: runSeq.Add(1), buckets: e.Buckets}
	if gr.buckets <= 0 {
		gr.buckets = e.defaultBuckets(cl, run.LeftDef, run.RightDef)
	}
	defer gr.reap()

	// One partition group per h1 class: all records with route(key) == g
	// belong to group g, held by one (reassignable) executor node. The
	// group — not the node — is the recovery unit: losing a node loses
	// exactly its groups' partitions, which are rebuilt from replicas.
	nj := len(cl.Compute)
	groups := make([]*group, nj)
	for g := range groups {
		groups[g] = &group{g: g, exec: g}
		groups[g].mount(gr)
	}

	// Phase 1: partition the left table, then the right table. A compute
	// node dying here only marks its groups lost (their records stop
	// shipping); phase 2 rebuilds them wholesale on survivors.
	partStart := time.Now()
	if err := gr.scanTable(ctx, sideLeft, groups, -1); err != nil {
		return nil, err
	}
	if err := gr.scanTable(ctx, sideRight, groups, -1); err != nil {
		return nil, err
	}
	// Flush residual bucket buffers — on every executor's scratch disk in
	// parallel, as each executor owns its disk.
	flushErrs := make([]error, nj)
	var flushWG sync.WaitGroup
	for g := 0; g < nj; g++ {
		flushWG.Add(1)
		go func(grp *group, idx int) {
			defer flushWG.Done()
			flushErrs[idx] = grp.flush()
		}(groups[g], g)
	}
	flushWG.Wait()
	for _, err := range flushErrs {
		if err != nil {
			return nil, err
		}
	}
	partElapsed := time.Since(partStart)

	// Publish the phase-2 schedule size: one unit per non-empty bucket
	// pair. flushWG.Wait() ordered the partition writes before this read.
	// Joined counts executed pairs, so fault-driven group rebuilds can push
	// it past Total; an undisturbed full run ends with Joined == Total.
	for _, grp := range groups {
		for k := 0; k < gr.buckets; k++ {
			if grp.lp.Rows(k) > 0 && grp.rp.Rows(k) > 0 {
				run.Req.Progress.Total.Add(1)
			}
		}
	}

	// Phase 2: every group's bucket pairs join independently on its
	// executor. joinBuckets only ever runs against a group whose partitions
	// are complete on a live executor: a group lost in phase 1 — or whose
	// executor dies mid-join, taking its partitions with it — is first
	// rebuilt from replicas on a survivor.
	joinStart := time.Now()
	place := func(g int, died bool) (int, error) {
		grp := groups[g]
		if died {
			grp.lost.Store(true)
		}
		if grp.lost.Load() || cl.ComputeDown(grp.exec) {
			if err := gr.rebuildGroup(ctx, grp); err != nil {
				return 0, err
			}
		}
		return grp.exec, nil
	}
	err = run.JoinParts(ctx, place, func(j *engine.Joiner) error {
		return joinBuckets(ctx, j, groups[j.Part], gr.buckets)
	})
	if err != nil {
		return nil, err
	}

	res := run.Finish(e.Name())
	res.Phases["partition"] = partElapsed
	res.Phases["bucketjoin"] = time.Since(joinStart)
	return res, nil
}

// defaultBuckets sizes h2's range so one bucket of the larger side is
// about DefaultBucketBytes.
func (e *Engine) defaultBuckets(cl *cluster.Cluster, leftDef, rightDef *metadata.TableDef) int {
	var maxBytes int64
	for _, def := range []*metadata.TableDef{leftDef, rightDef} {
		var rows int64
		for _, d := range cl.Catalog.Chunks(def.ID) {
			rows += int64(d.Rows)
		}
		bytes := rows * int64(def.Schema.RecordSize())
		if bytes > maxBytes {
			maxBytes = bytes
		}
	}
	perJoiner := maxBytes / int64(len(cl.Compute))
	b := int(perJoiner/DefaultBucketBytes) + 1
	if b < 4 {
		b = 4
	}
	return b
}

// group is one h1 partition class and the engine's recovery unit: every
// record with route(key) == g funnels into group g's partitioner pair on
// its executor node. When the executor dies, only this group's partitions
// are lost; a survivor takes the group over and rebuilds them from
// replicas under a fresh attempt-numbered scratch prefix.
type group struct {
	g       int
	exec    int    // current executor compute node
	attempt int    // increments per rebuild; namespaces scratch objects
	node    string // the executor's trace label
	mgr     *scratch.Manager
	lp, rp  *scratch.Partitioner
	// lost marks the group's partitions as gone (executor died while they
	// were being written or read). Scanners stop shipping to a lost group;
	// phase 2 rebuilds it before joining.
	lost atomic.Bool
}

// mount installs a fresh scratch manager and partitioner pair for the
// group's current (exec, attempt) on the executor's scratch disk.
func (grp *group) mount(gr *ghRun) {
	grp.node = fmt.Sprintf("joiner-%d", grp.exec)
	grp.mgr = scratch.NewManager(gr.Cluster.Compute[grp.exec].Scratch,
		fmt.Sprintf("gh/r%d/g%da%d", gr.seq, grp.g, grp.attempt), grp.node, gr.Req.Trace, gr.Obs)
	gr.mgrMu.Lock()
	gr.mgrs = append(gr.mgrs, grp.mgr)
	gr.mgrMu.Unlock()
	grp.lp = gr.partitioner(grp.mgr, "L/b", gr.LeftSchema)
	grp.rp = gr.partitioner(grp.mgr, "R/b", gr.RightSchema)
}

// partitioner is one side's h2: the side's rows hashed on the join key
// into the run's buckets.
func (gr *ghRun) partitioner(mgr *scratch.Manager, label string, schema tuple.Schema) *scratch.Partitioner {
	keyIdxs, _ := schema.Indexes(gr.Req.JoinAttrs) // resolved by engine.Begin
	return scratch.NewPartitioner(mgr, label, schema, keyIdxs, gr.buckets, tuple.SaltBucket)
}

// flush spills the group's residual buffers, downgrading an executor
// death to a lost mark (phase 2 rebuilds) rather than a run failure.
func (grp *group) flush() error {
	if grp.lost.Load() {
		return nil
	}
	err := grp.lp.Flush()
	if err == nil {
		err = grp.rp.Flush()
	}
	if err != nil {
		if node, down := fault.IsNodeDown(err); down && node == fault.ComputeNode(grp.exec) {
			grp.lost.Store(true)
			return nil
		}
		return err
	}
	return nil
}

// side selects a group's partitioner.
type side int

const (
	sideLeft side = iota
	sideRight
)

func (grp *group) part(sd side) *scratch.Partitioner {
	if sd == sideLeft {
		return grp.lp
	}
	return grp.rp
}

// scanTable runs the storage-side QES instances for one table in parallel:
// scan the side's resolved sub-tables (each chunk served by its primary node
// or, when that node is unreachable, a replica), split records by h1 into
// per-group batches, ship each batch and hand it to the group's
// partitioner under the scanning slot's tag. With only >= 0, records of
// every other group are skipped — the rebuild path re-materializing one
// lost group.
func (gr *ghRun) scanTable(ctx context.Context, sd side, groups []*group, only int) error {
	cl := gr.Cluster
	all, filter := gr.LeftDescs, gr.LeftFilter
	if sd == sideRight {
		all, filter = gr.RightDescs, gr.RightFilter
	}
	nj := len(groups) // h1's range — fixed for the run, even when rebuilding one group
	errs := make([]error, len(cl.Storage))
	var wg sync.WaitGroup
	for s := range cl.Storage {
		mine := make([]*chunk.Desc, 0, len(all)/len(cl.Storage)+1)
		for _, d := range all {
			if d.Node == s {
				mine = append(mine, d)
			}
		}
		if len(mine) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, descs []*chunk.Desc) {
			defer wg.Done()
			// Per-group outgoing batches, reused across shipments: the
			// partitioner copies every row out synchronously, so a shipped
			// batch can be Reset and refilled instead of reallocated.
			batches := make([]*tuple.SubTable, nj)
			var keyIdxs []int
			var keys []uint64
			rows := make([][]int32, nj) // the chunk's rows per group
			src := s                    // node that served the latest chunk (ship attribution)
			ship := func(g int) error {
				defer batches[g].Reset()
				return gr.shipBatch(src, s, groups[g], sd, batches[g])
			}
			for _, d := range descs {
				if err := ctx.Err(); err != nil {
					errs[s] = err
					return
				}
				fetchStart := time.Now()
				st, served, err := cl.ScanChunk(ctx, d, &filter, gr.Project)
				if err != nil {
					errs[s] = err
					return
				}
				src = served
				// The storage-side disk read is the first leg of GH's
				// transfer; shipBatch adds the network leg's seconds (with
				// no extra bytes), so the calibrated per-stream rate prices
				// the full scan→ship pipeline.
				gr.Obs.Fetch(int64(st.Bytes()), time.Since(fetchStart))
				if gr.Req.Trace.Enabled() {
					gr.Req.Trace.Span(fault.StorageNode(served), trace.KindFetch, d.ID().String(), fetchStart,
						int64(st.Bytes()), int64(st.NumRows()))
				}
				if keyIdxs == nil {
					if keyIdxs, err = st.Schema.Indexes(gr.Req.JoinAttrs); err != nil {
						errs[s] = err
						return
					}
				}
				keys = st.Keys(keys, keyIdxs)
				for g := range rows {
					rows[g] = rows[g][:0]
				}
				for r, k := range keys {
					if g := route(k, nj); only < 0 || g == only {
						rows[g] = append(rows[g], int32(r))
					}
				}
				for g, idx := range rows {
					for len(idx) > 0 {
						if batches[g] == nil {
							batches[g] = tuple.NewSubTable(tuple.ID{Table: st.ID.Table, Chunk: -1}, st.Schema, shipRows)
						}
						n := min(len(idx), shipRows-batches[g].NumRows())
						batches[g].AppendGather(st, idx[:n])
						idx = idx[n:]
						if batches[g].NumRows() == shipRows {
							if err := ship(g); err != nil {
								errs[s] = err
								return
							}
						}
					}
				}
			}
			for g, b := range batches {
				if b != nil && b.NumRows() > 0 {
					if err := ship(g); err != nil {
						errs[s] = err
						return
					}
				}
			}
		}(s, mine)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shipBatch models the network transfer of a record batch from storage
// node src to the group's executor and delivers it to the group's
// partitioner, tagged with the storage slot that scanned it (not src, the
// replica that served it, so a failover does not move rows). A batch for a
// lost group is dropped — its records will be re-materialized wholesale
// when the group rebuilds, so partial delivery now would double-count. An
// executor death during delivery marks the group lost instead of failing
// the scan.
func (gr *ghRun) shipBatch(src, slot int, grp *group, sd side, batch *tuple.SubTable) error {
	if grp.lost.Load() {
		return nil
	}
	cl := gr.Cluster
	start := time.Now()
	// Under the colenc wire codec the batch travels in compressed columnar
	// form; the modeled NIC is charged the frame size the sizing pass
	// computes, not the row-major payload. Rows delivered to the
	// partitioner are identical either way.
	size := int64(batch.Bytes())
	if cl.Config.WireEncoded() {
		size = int64(colenc.WireSize(batch))
	}
	cl.Ship(src, grp.exec, size)
	gr.Obs.Fetch(0, time.Since(start))
	if gr.Req.Trace.Enabled() {
		gr.Req.Trace.Span(fault.StorageNode(src), trace.KindShip, grp.node, start,
			size, int64(batch.NumRows()))
	}
	if err := grp.part(sd).Add(uint32(slot), batch); err != nil {
		if node, down := fault.IsNodeDown(err); down && node == fault.ComputeNode(grp.exec) {
			grp.lost.Store(true)
			return nil
		}
		return err
	}
	return nil
}

// rebuildGroup re-homes a lost group on the next surviving compute node
// and re-materializes exactly its partitions by re-scanning both tables
// from replicas, under a fresh attempt-numbered scratch namespace (stale
// partial objects from the dead attempt are never read).
func (gr *ghRun) rebuildGroup(ctx context.Context, grp *group) error {
	next, ok := gr.NextAlive(grp.exec)
	if !ok {
		return fmt.Errorf("gh: group %d: no compute nodes left", grp.g)
	}
	start := time.Now()
	prev := grp.exec
	grp.exec = next
	grp.attempt++
	grp.lost.Store(false)
	grp.mount(gr)
	gr.Cluster.Health.Rebuilds.Add(1)
	// h1 classes are positional: scanTable indexes groups[g], so the slice
	// spans all nj classes even though only grp.g receives rows.
	groups := make([]*group, len(gr.Cluster.Compute))
	groups[grp.g] = grp
	if err := gr.scanTable(ctx, sideLeft, groups, grp.g); err != nil {
		return err
	}
	if err := gr.scanTable(ctx, sideRight, groups, grp.g); err != nil {
		return err
	}
	if err := grp.flush(); err != nil {
		return err
	}
	gr.Req.Trace.Span(grp.node, trace.KindRecover,
		fmt.Sprintf("group %d rebuilt after compute-%d died", grp.g, prev), start, 0, 0)
	return nil
}

// joinBuckets is phase 2 for one group: join its bucket pairs
// independently on the group's current executor. A pair whose build side
// overflows the run's memory cap (key skew past what the bucket count
// absorbs) is repartitioned through the group's scratch disk by the
// shared runtime.
func joinBuckets(ctx context.Context, j *engine.Joiner, grp *group, buckets int) error {
	lp, rp := grp.lp, grp.rp
	for k := range buckets {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lp.Rows(k) == 0 || rp.Rows(k) == 0 {
			// An empty side produces nothing; skip reading the other.
			continue
		}
		// Each side reads back grouped by ascending scanning slot. The
		// read is size-verified: a bucket the store holds short (a crashed
		// or short write slipped through) fails loudly here.
		left, err := lp.Table(k)
		if err != nil {
			return err
		}
		right, err := rp.Table(k)
		if err != nil {
			return err
		}
		if err := j.JoinPair(grp.mgr, fmt.Sprintf("b%d", k), left, right); err != nil {
			return err
		}
		if err := j.Emit(true); err != nil {
			return err
		}
		lp.Release(k)
		rp.Release(k)
	}
	return nil
}
