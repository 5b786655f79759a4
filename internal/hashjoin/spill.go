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
// builds a bounded hash table and probes the full streamed right side.
//
// The output is byte-identical to the in-memory join at any budget:
// probing records each match's right-row index, and the per-leaf
// outputs are merged by ascending right-row index. All left rows that
// can match a given right row share its packed key, hence hash to the
// same leaf at every salt — so the per-right-row match runs are whole
// within one leaf and arrive in the same ascending left-row chain order
// the in-memory probe emits.

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
	// probe with the sub-table processed and the phase start time, so
	// the engine can charge modeled CPU and record spans.
	Built  func(label string, st *tuple.SubTable, start time.Time)
	Probed func(label string, st *tuple.SubTable, start time.Time)
}

// taggedMatches is one leaf's probe output: the joined rows plus each
// row's originating right-row index (ascending; runs of equal indices
// are the per-right-row chains, already in left-row order).
type taggedMatches struct {
	st   *tuple.SubTable
	ridx []int32
}

// JoinPairSpill joins left and right into out with the build side
// bounded by memBytes: left partitions larger than memBytes are split
// (fanout ways, salted by depth) and round-tripped through scratch
// until they fit or maxDepth is reached (a partition of duplicate keys
// cannot shrink — it falls back to an oversized build). workFactor is
// always 1 in product (see the package comment). Returns the number of
// leaf partitions built and the match count.
func JoinPairSpill(left, right *tuple.SubTable, keys []string, label string,
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
	rKeyIdxs, err := right.Schema.Indexes(keys)
	if err != nil {
		return 0, 0, fmt.Errorf("hashjoin: spill join: %w", err)
	}
	isKey := make([]bool, right.Schema.NumAttrs())
	for _, i := range rKeyIdxs {
		isKey[i] = true
	}
	var rValIdxs []int
	for i := range right.Schema.Attrs {
		if !isKey[i] {
			rValIdxs = append(rValIdxs, i)
		}
	}
	wantAttrs := left.Schema.NumAttrs() + len(rValIdxs)
	if out.Schema.NumAttrs() != wantAttrs {
		return 0, 0, fmt.Errorf("hashjoin: output schema has %d attrs, want %d", out.Schema.NumAttrs(), wantAttrs)
	}

	var tagged []taggedMatches
	var process func(pt *tuple.SubTable, salt uint64, depth int, plabel string) error
	process = func(pt *tuple.SubTable, salt uint64, depth int, plabel string) error {
		if pt.NumRows() == 0 {
			return nil
		}
		if memBytes > 0 && int64(pt.Bytes()) > memBytes && depth < maxDepth {
			subs := make([]*tuple.SubTable, fanout)
			row := tuple.GetRow(pt.Schema.NumAttrs())
			for r := 0; r < pt.NumRows(); r++ {
				i := int(part(pt.Key(r, lKeyIdxs), salt) % uint64(fanout))
				if subs[i] == nil {
					subs[i] = tuple.NewSubTable(pt.ID, pt.Schema, 0)
				}
				subs[i].AppendRow(pt.Row(r, row)...)
			}
			tuple.PutRow(row)
			for i, sub := range subs {
				if sub == nil {
					continue
				}
				sl := fmt.Sprintf("%s.%d", plabel, i)
				rt, err := hooks.RoundTrip(sl, sub)
				if err != nil {
					return err
				}
				if err := process(rt, salt+1, depth+1, sl); err != nil {
					return err
				}
			}
			return nil
		}
		// Leaf: bounded build, tagged probe of the full right side.
		start := time.Now()
		ht, err := BuildParallel(pt, keys, workFactor, workers, stats)
		if err != nil {
			return err
		}
		if hooks.Built != nil {
			hooks.Built(plabel, pt, start)
		}
		start = time.Now()
		tm := taggedMatches{st: tuple.NewSubTable(out.ID, out.Schema, 0)}
		m := ht.probeTagged(right, rKeyIdxs, rValIdxs, tm.st, &tm.ridx)
		if stats != nil {
			stats.TuplesProbed.Add(int64(right.NumRows() * workFactor))
			stats.Matches.Add(int64(m))
		}
		if hooks.Probed != nil {
			hooks.Probed(plabel, right, start)
		}
		matches += m
		leaves++
		tagged = append(tagged, tm)
		return nil
	}
	if err := process(left, 0, 0, label); err != nil {
		return leaves, matches, err
	}

	// Merge leaf outputs by ascending right-row index. Index sets are
	// disjoint across leaves (equal keys hash identically at every salt),
	// so this interleaving reproduces the in-memory probe order exactly.
	pos := make([]int, len(tagged))
	row := tuple.GetRow(out.Schema.NumAttrs())
	defer tuple.PutRow(row)
	for {
		best := -1
		var bestR int32
		for i := range tagged {
			if pos[i] >= len(tagged[i].ridx) {
				continue
			}
			if r := tagged[i].ridx[pos[i]]; best < 0 || r < bestR {
				best, bestR = i, r
			}
		}
		if best < 0 {
			break
		}
		// Copy this leaf's whole run of matches for right row bestR.
		t := &tagged[best]
		for pos[best] < len(t.ridx) && t.ridx[pos[best]] == bestR {
			out.AppendRow(t.st.Row(pos[best], row)...)
			pos[best]++
		}
	}
	return leaves, matches, nil
}

// probeTagged is probeRange over the whole right side, additionally
// recording each match's right-row index. Chains are walked in
// ascending left-row order, exactly as probeRange does.
func (ht *HashTable) probeTagged(right *tuple.SubTable, rKeyIdxs, rValIdxs []int, out *tuple.SubTable, ridx *[]int32) int {
	lAttrs := ht.left.Schema.NumAttrs()
	row := tuple.GetRow(lAttrs + len(rValIdxs))
	defer tuple.PutRow(row)
	matches := 0
	for r := 0; r < right.NumRows(); r++ {
		k := right.Key(r, rKeyIdxs)
		for lr := ht.lookup(k); lr >= 0; lr = ht.next[lr] {
			if !ht.left.KeysEqual(int(lr), ht.keyIdxs, right, r, rKeyIdxs) {
				continue
			}
			for c := 0; c < lAttrs; c++ {
				row[c] = ht.left.Value(int(lr), c)
			}
			for i, rc := range rValIdxs {
				row[lAttrs+i] = right.Value(r, rc)
			}
			out.AppendRow(row...)
			*ridx = append(*ridx, int32(r))
			matches++
		}
	}
	return matches
}
