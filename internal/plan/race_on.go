//go:build race

package plan

// poisonFreed: under the race detector a recycled join batch is
// overwritten with NaN as it is freed (reorder.recycle).
const poisonFreed = true
