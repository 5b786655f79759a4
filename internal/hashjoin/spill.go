package hashjoin

import (
	"fmt"
	"time"

	"sciview/internal/tuple"
)

// Out-of-core join: when a build side exceeds its memory charge, the
// left (build) relation is split into partitions by a salted hash of
// the packed join key, each partition is round-tripped through scratch
// (paying the spill I/O degraded mode models), and each resulting leaf
// builds a bounded hash table. The right (probe) side is split beside it
// by the same hash — it is already resident, so its partitions are
// row-index lists, never copies — and each leaf probes only its own
// right partition: every right row is looked up once, in the one leaf
// that can hold its matches, as the in-memory join looks it up.
//
// The output is byte-identical to the in-memory join at any budget: a
// leaf's probe is the in-memory probe, whose right-row match vector tags
// its output with original right-row indices, and the per-leaf outputs
// are merged by ascending right-row index. All left rows that can match
// a given right row share its packed key, hence hash to the same leaf at
// every salt — so the per-right-row match runs are whole within one leaf
// and arrive in the same ascending left-row chain order the in-memory
// probe emits.

// PartFunc maps a packed join key and a recursion salt to a partition
// hash. Callers supply their engine's salted hash so recursive splits
// stay consistent with any partitioning already applied upstream.
type PartFunc func(key uint64, salt uint64) uint64

// SpillHooks are the caller's I/O and accounting callbacks.
type SpillHooks struct {
	// RoundTrip spills one build partition to scratch and reads it back,
	// returning the (re-decoded) partition. This is where the scratch
	// manager bills spill bytes; an error aborts the join.
	RoundTrip func(label string, st *tuple.SubTable) (*tuple.SubTable, error)
	// Built and Probed, when non-nil, are called after each leaf build /
	// probe with the rows and decoded bytes processed and the phase start
	// time, so the engine can charge modeled CPU and record spans.
	Built  func(label string, rows, bytes int, start time.Time)
	Probed func(label string, rows, bytes int, start time.Time)
}

// JoinPairSpill joins left and right into out, whose schema is an
// ordered subset of the join result (as for ProbeParallel), with the
// build side bounded by memBytes: left partitions larger than memBytes are split
// (fanout ways, salted by depth) and round-tripped through scratch
// until they fit or maxDepth is reached (a partition of duplicate keys
// cannot shrink — it falls back to an oversized build). Each leaf
// probes only the right rows that hash with it, so every right row is
// looked up once; a leaf with no right rows builds nothing.
// workFactor is always 1 in product (see the package comment). Returns
// the number of leaf partitions built and the match count.
func JoinPairSpill(left, right *tuple.SubTable, keys []string, label string,
	workFactor, workers int, memBytes int64, fanout, maxDepth int,
	part PartFunc, hooks SpillHooks, out *tuple.SubTable, stats *Stats) (leaves, matches int, err error) {
	var b Builder
	return b.joinPairSpill(left, right, keys, label, workFactor, workers, memBytes, fanout, maxDepth, part, hooks, out, stats)
}

// JoinPairSpill is the package-level JoinPairSpill building its leaves —
// one live at a time — out of the builder's arena.
func (b *Builder) JoinPairSpill(left, right *tuple.SubTable, keys []string, label string,
	workers int, memBytes int64, fanout, maxDepth int,
	part PartFunc, hooks SpillHooks, out *tuple.SubTable, stats *Stats) (leaves, matches int, err error) {
	return b.joinPairSpill(left, right, keys, label, 1, workers, memBytes, fanout, maxDepth, part, hooks, out, stats)
}

func (b *Builder) joinPairSpill(left, right *tuple.SubTable, keys []string, label string,
	workFactor, workers int, memBytes int64, fanout, maxDepth int,
	part PartFunc, hooks SpillHooks, out *tuple.SubTable, stats *Stats) (leaves, matches int, err error) {
	if workFactor < 1 {
		workFactor = 1
	}
	if fanout < 2 {
		fanout = 2
	}
	lKeyIdxs, err := left.Schema.Indexes(keys)
	if err != nil {
		return 0, 0, fmt.Errorf("hashjoin: spill join: %w", err)
	}
	if err := b.probe.resolve(left.Schema, right.Schema, out.Schema, keys); err != nil {
		return 0, 0, fmt.Errorf("hashjoin: spill join: %w", err)
	}

	// The right keys are packed once; the leaves probe them by row index.
	s := &b.probe
	s.whole = false
	s.keys = right.Keys(s.keys, s.rKeyIdxs)
	b.rsel = resize(b.rsel, right.NumRows())
	for r := range b.rsel {
		b.rsel[r] = int32(r)
	}

	// The leaves' outputs, concatenated in leaf order, and each row's
	// originating right-row index: ascending within a leaf, runs of equal
	// indices being the per-right-row chains, already in left-row order.
	cat := tuple.NewSubTable(out.ID, out.Schema, 0)
	var tags []int32
	var splitKeys []uint64 // consumed into row lists before process recurses
	var process func(pt *tuple.SubTable, rsel []int32, salt uint64, depth int, plabel string) error
	process = func(pt *tuple.SubTable, rsel []int32, salt uint64, depth int, plabel string) error {
		if pt.NumRows() == 0 {
			return nil
		}
		if memBytes > 0 && int64(pt.Bytes()) > memBytes && depth < maxDepth {
			splitKeys = pt.Keys(splitKeys, lKeyIdxs)
			rows := make([][]int32, fanout)
			for r, k := range splitKeys {
				i := part(k, salt) % uint64(fanout)
				rows[i] = append(rows[i], int32(r))
			}
			rrows := make([][]int32, fanout)
			for _, r := range rsel {
				i := part(s.keys[r], salt) % uint64(fanout)
				rrows[i] = append(rrows[i], r)
			}
			for i, idx := range rows {
				if len(idx) == 0 {
					continue
				}
				sub := tuple.NewSubTable(pt.ID, pt.Schema, 0)
				sub.AppendGather(pt, idx)
				sl := fmt.Sprintf("%s.%d", plabel, i)
				rt, err := hooks.RoundTrip(sl, sub)
				if err != nil {
					return err
				}
				if err := process(rt, rrows[i], salt+1, depth+1, sl); err != nil {
					return err
				}
			}
			return nil
		}
		// Leaf: a bounded build probed by its own right partition. One
		// whose partition is empty has paid its round trip, if any, and
		// joins nothing.
		if len(rsel) == 0 {
			return nil
		}
		start := time.Now()
		ht, err := b.build(pt, keys, workFactor, workers, stats)
		if err != nil {
			return err
		}
		if hooks.Built != nil {
			hooks.Built(plabel, pt.NumRows(), pt.Bytes(), start)
		}
		start = time.Now()
		m := ht.probeRows(s, right, rsel, 1, cat)
		tags = append(tags, s.vecs[0].right...)
		if stats != nil {
			stats.TuplesProbed.Add(int64(len(rsel) * workFactor))
			stats.Matches.Add(int64(m))
		}
		if hooks.Probed != nil {
			hooks.Probed(plabel, len(rsel), len(rsel)*right.Schema.RecordSize(), start)
		}
		matches += m
		leaves++
		return nil
	}
	if err := process(left, b.rsel, 0, 0, label); err != nil {
		return leaves, matches, err
	}

	// Merge by ascending right-row index: a stable counting sort of cat's
	// rows on their tag. A right row's matches all sit in one leaf (equal
	// keys hash identically at every salt), so this reproduces the
	// in-memory probe order exactly.
	at := make([]int32, right.NumRows()+1)
	for _, r := range tags {
		at[r+1]++
	}
	for r := 1; r < len(at); r++ {
		at[r] += at[r-1]
	}
	order := make([]int32, len(tags))
	for row, r := range tags {
		order[at[r]] = int32(row)
		at[r]++
	}
	out.AppendGather(cat, order)
	return leaves, matches, nil
}
