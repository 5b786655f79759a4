package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sciview/internal/cluster"
	"sciview/internal/fault"
	"sciview/internal/hashjoin"
	"sciview/internal/trace"
	"sciview/internal/tuple"
)

// The QES runtime. The two Query Execution Systems differ in exactly one
// thing — how a (left, right) pair of sub-tables reaches a joiner: IJ
// walks a connectivity-graph schedule through the cache, GH routes records
// by h1/h2 into scratch buckets. Everything after that is the same job on
// the same nodes under the same cost terms, and it is written here once:
// the cluster hold and clock (Begin; what to join was settled by Resolve),
// the executor-death retry loop (JoinParts), the in-memory or spilled pair
// join with its CPU charge, calibration feed and trace spans (Joiner), the
// output hand-off (Emit) and the result (Finish).

// Run is the state of one execution that the engines share: the resolved
// inputs it was handed plus what Begin adds. Engines read the exported
// fields and never set them.
type Run struct {
	// Inputs is the run's own copy of what it was given; its Req.Progress
	// is never nil.
	Inputs
	Cluster *cluster.Cluster
	// Obs collects the run's measured costs for Result.Observed.
	Obs *ObsCollector

	// memCap is one pair's build-side share of Req.MemoryBudget: each
	// joiner may hold a build and a probe sub-table at once, hence the
	// 2·nj divisor. 0 = unbounded.
	memCap   int64
	stats    hashjoin.Stats
	outs     []*tuple.SubTable
	unitEnds [][]int
	start    time.Time
	// before is the cluster's counters when the run started; Finish
	// reports the difference.
	before  cluster.Account
	release func()
}

// Begin takes the cluster (shared, or exclusively with a state reset),
// snapshots its counters and starts the run's clock; everything the run
// joins was decided by Resolve. The caller must Close the returned run.
func Begin(ctx context.Context, cl *cluster.Cluster, in *Inputs) (*Run, error) {
	r := &Run{Inputs: *in, Cluster: cl, Obs: &ObsCollector{}}
	if r.Req.Progress == nil {
		r.Req.Progress = &Progress{}
	}
	if r.Req.MemoryBudget > 0 {
		r.memCap = max(r.Req.MemoryBudget/int64(2*len(cl.Compute)), 1)
	}
	if r.Req.Shared {
		cl.AcquireShared()
		r.release = cl.ReleaseShared
	} else {
		cl.AcquireRun()
		r.release = cl.ReleaseRun
		cl.Reset()
	}
	if err := ctx.Err(); err != nil {
		r.release()
		return nil, err
	}
	r.before = cl.Account()
	r.start = time.Now()
	return r, nil
}

// Close releases the run's hold on the cluster.
func (r *Run) Close() { r.release() }

// NextAlive returns the first surviving compute node after from in ring
// order.
func (r *Run) NextAlive(from int) (int, bool) {
	n := len(r.Cluster.Compute)
	for d := 1; d <= n; d++ {
		if j := (from + d) % n; !r.Cluster.ComputeDown(j) {
			return j, true
		}
	}
	return 0, false
}

// JoinParts joins the run's parts — one per compute node: an IJ schedule
// slot, a GH partition group — concurrently, driving each to completion
// through executor deaths. place returns the live compute node a part runs
// on next; died tells it that the part's previous attempt lost its
// executor mid-join. attempt joins the whole part on j. An attempt that
// fails because its own executor died (a NodeDownError naming it) is
// thrown away whole — output, join counts, streamed batches — and the part
// replays from the top wherever place puts it, so a recovered run
// double-counts nothing and a part's output never depends on which node
// ran it. Any other error fails the run.
func (r *Run) JoinParts(ctx context.Context, place func(part int, died bool) (int, error), attempt func(j *Joiner) error) error {
	n := len(r.Cluster.Compute)
	r.outs = make([]*tuple.SubTable, n)
	r.unitEnds = make([][]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for part := 0; part < n; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			errs[part] = r.joinPart(ctx, part, place, attempt)
		}(part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Run) joinPart(ctx context.Context, part int, place func(int, bool) (int, error), attempt func(*Joiner) error) error {
	for died := false; ; died = true {
		if err := ctx.Err(); err != nil {
			return err
		}
		exec, err := place(part, died)
		if err != nil {
			return err
		}
		j := &Joiner{
			Run: r, Part: part, Exec: exec,
			Node: fmt.Sprintf("joiner-%d", exec),
			cn:   r.Cluster.Compute[exec],
		}
		j.out = j.newOut()
		err = attempt(j)
		if err == nil {
			r.stats.Add(&j.local)
			if r.Req.Sink != nil {
				r.Req.Sink.Done(part)
			}
			r.outs[part], r.unitEnds[part] = j.out, j.unitEnds
			return nil
		}
		if node, down := fault.IsNodeDown(err); !down || node != fault.ComputeNode(exec) {
			return err
		}
		if r.Req.Sink != nil {
			r.Req.Sink.Discard(part)
		}
		r.Cluster.Health.Recoveries.Add(1)
	}
}

// Finish assembles the run's result and closes the decide→run→observe
// loop: every successful engine run passes through here, so this is the
// one place an estimator is fed — the one that priced the run, if any.
// The result's Traffic, Cache and Health are what the cluster's counters
// moved since Begin. Engines add what only they know (GH's phase
// durations).
func (r *Run) Finish(name string) *Result {
	acct := r.Cluster.Account().Sub(r.before)
	res := &Result{
		Engine:  name,
		Elapsed: time.Since(r.start),
		Join: JoinCounts{
			TuplesBuilt:  r.stats.TuplesBuilt.Load(),
			TuplesProbed: r.stats.TuplesProbed.Load(),
			Matches:      r.stats.Matches.Load(),
		},
		Cache:       acct.Cache,
		Traffic:     acct.Traffic,
		Health:      acct.Health,
		Phases:      map[string]time.Duration{},
		UnitsJoined: r.Req.Progress.Joined.Load(),
		UnitsTotal:  r.Req.Progress.Total.Load(),
		Observed:    r.Obs.Snapshot(),
	}
	res.Tuples = res.Join.Matches
	r.PricedBy.Observe(res.Observed)
	if r.Req.Collect && r.Req.Sink == nil {
		res.Collected, res.unitEnds = r.outs, r.unitEnds
	}
	return res
}

// Joiner is one attempt at one part on one compute node: the part's
// output table and the attempt's join counts, kept apart from the run's
// until the attempt succeeds.
type Joiner struct {
	*Run
	// Part is the IJ slot or GH group index; Exec the compute node running
	// this attempt; Node its trace label.
	Part, Exec int
	Node       string

	cn  *cluster.ComputeNode
	out *tuple.SubTable
	// unitEnds is, in a collecting run, the end row in out of each unit.
	unitEnds []int
	local    hashjoin.Stats
	// hj owns the arrays of the attempt's one live hash table — IJ's
	// per-left table, GH's per-pair table, one spill leaf at a time — and
	// reuses them from one build to the next, with the probe scratch that
	// serves every probe of it.
	hj hashjoin.Builder
	// rbuf holds the right carrier of the edge being joined, decoded into
	// it by Decode or Gather and overwritten by the next: the output holds
	// gathered copies, and nothing keeps a right side past its edge.
	rbuf cluster.DecodeBuf
}

// Spiller round-trips one build partition of an over-budget pair through
// the joiner's scratch disk. *scratch.Manager implements it (scratch
// imports this package, so the dependency points this way).
type Spiller interface {
	RoundTrip(label string, st *tuple.SubTable) (*tuple.SubTable, error)
}

// Overflow recursion bounds for over-budget pairs.
const (
	spillFanout   = 8
	spillMaxDepth = 3
)

// kernelWorkers is the worker count every build and probe asks for:
// hashjoin.Workers resolves 0 to GOMAXPROCS, the process's one width
// setting. Output is byte-identical at every width.
const kernelWorkers = 0

// newOut returns an empty output table for the part: a batch the sink has
// freed, reset, else a new one.
func (j *Joiner) newOut() *tuple.SubTable {
	id := tuple.ID{Table: -1, Chunk: int32(j.Part)}
	if j.Req.Sink != nil {
		if st := j.Req.Sink.Free(); st != nil {
			st.Reset()
			st.ID = id
			return st
		}
	}
	return tuple.NewSubTable(id, j.OutSchema, 0)
}

// built and probed are the only places that charge a hash build or probe
// pass over rows rows of bytes decoded bytes: the modeled CPU, the
// calibration feed and the trace span.
func (j *Joiner) built(label string, rows, bytes int, start time.Time) {
	ops := int64(rows)
	j.cn.SpendCPU(ops)
	j.Obs.Build(ops, time.Since(start))
	j.Req.Trace.Span(j.Node, trace.KindBuild, label, start, int64(bytes), ops)
}

func (j *Joiner) probed(label string, rows, bytes int, start time.Time) {
	ops := int64(rows)
	j.cn.SpendCPU(ops)
	j.Obs.Probe(ops, time.Since(start))
	j.Req.Trace.Span(j.Node, trace.KindProbe, label, start, int64(bytes), ops)
}

// Fits reports whether a build side of leftBytes decoded bytes
// (SubTable.Bytes, Fetched.DecodedBytes) may be built whole under the run's
// per-pair memory cap.
func (j *Joiner) Fits(leftBytes int) bool {
	return j.memCap == 0 || int64(leftBytes) <= j.memCap
}

// Build builds the hash table over left in the joiner's arena and charges
// the build. It replaces the joiner's previous table; Probe probes this
// one.
func (j *Joiner) Build(label string, left *tuple.SubTable) error {
	start := time.Now()
	if _, err := j.hj.Build(left, j.Req.JoinAttrs, kernelWorkers, &j.local); err != nil {
		return err
	}
	j.built(label, left.NumRows(), left.Bytes(), start)
	return nil
}

// Keep offers rows — a left carrier's rows decoded from an encoded frame,
// read-only from here on — to its compute node's cache under key, charged
// at rows.Bytes(). The cache admits them only into free room and only if
// key is absent. An exclusive run offers nothing: the next run resets the
// caches, so no statement could read what it kept.
func (j *Joiner) Keep(key cluster.FetchKey, rows *tuple.SubTable) {
	if j.Req.Shared {
		j.cn.Cache.Admit(key, cluster.FetchedSubTable(rows), int64(rows.Bytes()))
	}
}

// Decode returns the rows of frame, a right carrier: a row-major frame's
// own, or an encoded frame decoded into the joiner's buffer. They are
// valid until the joiner's next Decode or Gather.
func (j *Joiner) Decode(frame *cluster.Fetched) (*tuple.SubTable, error) {
	return frame.SubTableIn(&j.rbuf)
}

// KeepPairs offers the match pairs of the joiner's last Probe to its
// compute node's cache under key (cluster.FetchKey.PairKey), as Keep
// offers rows: into free room only, if key is absent, and never in an
// exclusive run. The vectors are copied out of the probe scratch only
// once the cache has room for them. The caller offers a whole in-memory
// probe only; after a JoinPairSpill there is nothing to offer.
func (j *Joiner) KeepPairs(key cluster.FetchKey) {
	size := j.hj.PairsBytes()
	if !j.Req.Shared || size == 0 || !j.cn.Cache.Admits(key, int64(size)) {
		return
	}
	j.cn.Cache.Admit(key, cluster.FetchedPairs(j.hj.Pairs()), int64(size))
}

// Gather joins an edge whose match pairs p a probe recorded into the
// part's output, without building or probing: the output's left columns
// by p.Left, and its right payload columns by p.Right — decoded alone into
// the joiner's buffer, the join keys and the columns the output does not
// hold not at all, or read as is from a row-major frame. It charges no
// CPU and feeds no calibration sample, since it looks nothing up; it
// counts the matches. Its trace span is a probe span over the right
// payload bytes it read with 0 operations, so the join keeps its
// wall-clock time in the trace.
func (j *Joiner) Gather(left *tuple.SubTable, p *hashjoin.Pairs, label string, right *cluster.Fetched) error {
	start := time.Now()
	schema := right.Schema()
	payload, err := j.hj.Payload(left.Schema, schema, j.OutSchema, j.Req.JoinAttrs)
	if err != nil {
		return err
	}
	cols, err := right.Columns(&j.rbuf, payload)
	if err != nil {
		return err
	}
	if _, err := j.hj.Gather(left, p, schema, cols, j.Req.JoinAttrs, kernelWorkers, j.out, &j.local); err != nil {
		return err
	}
	j.Req.Trace.Span(j.Node, trace.KindProbe, label, start, int64(right.NumRows()*len(payload)*tuple.AttrSize), 0)
	return nil
}

// Probe probes the table of the joiner's last Build with right into the
// part's output.
func (j *Joiner) Probe(label string, right *tuple.SubTable) error {
	start := time.Now()
	if _, err := j.hj.Probe(right, j.Req.JoinAttrs, kernelWorkers, j.out, &j.local); err != nil {
		return err
	}
	j.probed(label, right.NumRows(), right.Bytes(), start)
	return nil
}

// JoinPair joins one (left, right) pair into the part's output. A build
// side that fits the cap joins in memory. One that does not goes through
// hashjoin.JoinPairSpill: the build side is recursively repartitioned
// by tuple.Mix under each depth's tuple.SaltSplit, so every depth is
// decorrelated from the one above it and from GH's bucket hash, and each
// partition is round-tripped through sp exactly as a
// memory-constrained node would, so the modeled I/O is paid; past
// spillMaxDepth (duplicate keys no hash can split) the residue builds
// oversized. The resident right side is split by the same hash, so each
// leaf probes only its own right rows and every right row is probed once,
// as in memory. A leaf with no right rows builds nothing, so under a cap
// the built count (and the build CPU charged) covers only the leaves that
// have right rows, at most the left row count. Output is byte-identical
// to the in-memory join at any cap.
func (j *Joiner) JoinPair(sp Spiller, label string, left, right *tuple.SubTable) error {
	if j.Fits(left.Bytes()) {
		if err := j.Build(label, left); err != nil {
			return err
		}
		return j.Probe(label, right)
	}
	hooks := hashjoin.SpillHooks{RoundTrip: sp.RoundTrip, Built: j.built, Probed: j.probed}
	_, _, err := j.hj.JoinPairSpill(left, right, j.Req.JoinAttrs, label,
		kernelWorkers, j.memCap, spillFanout, spillMaxDepth,
		func(key, depth uint64) uint64 { return tuple.Mix(key, tuple.SaltSplit(depth)) },
		hooks, j.out, &j.local)
	return err
}

// Emit closes one join step (IJ edge, GH bucket pair): it counts the step
// and hands its output on; last marks the end of a schedule unit (see
// Sink). A sink takes ownership of a non-empty batch, so the next step
// writes into a batch the sink has freed, or a new one, and the sink gets
// a nil batch only to close a unit; a collecting run keeps appending and
// marks where each unit ends; a count-only run resets the table.
func (j *Joiner) Emit(last bool) error {
	j.Req.Progress.Joined.Add(1)
	switch {
	case j.Req.Sink != nil:
		var batch *tuple.SubTable
		if j.out.NumRows() > 0 {
			batch, j.out = j.out, j.newOut()
		} else if !last {
			return nil
		}
		return j.Req.Sink.Emit(j.Part, batch, last)
	case j.Req.Collect:
		if last {
			j.unitEnds = append(j.unitEnds, j.out.NumRows())
		}
	default:
		j.out.Reset()
	}
	return nil
}
