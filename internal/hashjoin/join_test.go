package hashjoin

import "sciview/internal/tuple"

// Join builds over left and probes with right in one call, returning the
// joined sub-table: the in-memory pair join the tests compare against
// NestedLoop and the spilled join.
func Join(left, right *tuple.SubTable, keys []string, stats *Stats) (*tuple.SubTable, error) {
	ht, err := BuildParallel(left, keys, 1, 1, stats)
	if err != nil {
		return nil, err
	}
	outSchema := left.Schema.JoinResult(right.Schema, keys, "r_")
	out := tuple.NewSubTable(tuple.ID{Table: -1, Chunk: -1}, outSchema, 0)
	if _, err := ht.ProbeParallel(right, keys, 1, 1, out, stats); err != nil {
		return nil, err
	}
	return out, nil
}
