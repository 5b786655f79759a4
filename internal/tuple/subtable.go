package tuple

import (
	"fmt"
	"math"
	"slices"

	"sciview/internal/bbox"
)

// ID identifies a basic sub-table as the pair (table id, chunk id), the
// paper's (i, j) identifier scheme. Derived sub-tables (join results) keep
// Table = -1.
type ID struct {
	Table int32
	Chunk int32
}

// Less orders IDs lexicographically. The IJ scheduler sorts edge endpoints
// with this order (the paper's stage-2 lexicographic schedule).
func (id ID) Less(o ID) bool {
	if id.Table != o.Table {
		return id.Table < o.Table
	}
	return id.Chunk < o.Chunk
}

func (id ID) String() string { return fmt.Sprintf("(%d,%d)", id.Table, id.Chunk) }

// SubTable is a columnar partition of a virtual table: a subset of records
// with all attributes of its schema, plus the bounding-box metadata the
// framework attaches to each chunk. SubTables are the unit of transfer
// between BDS instances and join nodes.
type SubTable struct {
	ID     ID
	Schema Schema
	cols   [][]float32
	rows   int
}

// NewSubTable returns an empty sub-table with the given schema, with space
// preallocated for capacity rows.
func NewSubTable(id ID, schema Schema, capacity int) *SubTable {
	cols := make([][]float32, schema.NumAttrs())
	for i := range cols {
		cols[i] = make([]float32, 0, capacity)
	}
	return &SubTable{ID: id, Schema: schema, cols: cols}
}

// FromColumns builds a sub-table directly from column slices. All columns
// must have equal length; the slices are adopted, not copied.
func FromColumns(id ID, schema Schema, cols [][]float32) (*SubTable, error) {
	if len(cols) != schema.NumAttrs() {
		return nil, fmt.Errorf("tuple: %d columns for %d attributes", len(cols), schema.NumAttrs())
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	for i, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("tuple: column %d has %d rows, want %d", i, len(c), rows)
		}
	}
	return &SubTable{ID: id, Schema: schema, cols: cols, rows: rows}, nil
}

// NumRows returns the number of records.
func (st *SubTable) NumRows() int { return st.rows }

// Bytes returns the in-memory payload size in bytes (rows × record size).
// Transfer and spill accounting is based on this quantity.
func (st *SubTable) Bytes() int { return st.rows * st.Schema.RecordSize() }

// Reset truncates the sub-table to zero rows, retaining column capacity.
// Engines running in counting mode reuse one output sub-table this way.
func (st *SubTable) Reset() {
	for i := range st.cols {
		st.cols[i] = st.cols[i][:0]
	}
	st.rows = 0
}

// AppendRow appends one record. The number of values must match the schema.
func (st *SubTable) AppendRow(vals ...float32) {
	if len(vals) != len(st.cols) {
		panic(fmt.Sprintf("tuple: AppendRow with %d values for %d attributes", len(vals), len(st.cols)))
	}
	for i, v := range vals {
		st.cols[i] = append(st.cols[i], v)
	}
	st.rows++
}

// Extend appends n records of undefined content and returns the index of
// the first: the caller fills them a column at a time with GatherCol.
// Growth is amortised, as append's is — a collecting join extends one output
// table once per edge, and an exact-fit reallocation there is quadratic.
func (st *SubTable) Extend(n int) int {
	base := st.rows
	for i, c := range st.cols {
		st.cols[i] = slices.Grow(c, n)[:base+n]
	}
	st.rows += n
	return base
}

// GatherCol sets rows [at, at+len(idx)) of column col to src[idx[i]]: one
// column of a batch of records picked out of another table by a row-index
// vector. Disjoint row ranges may be filled concurrently.
func (st *SubTable) GatherCol(col, at int, src []float32, idx []int32) {
	dst := st.cols[col][at : at+len(idx)]
	for i, r := range idx {
		dst[i] = src[r]
	}
}

// AppendGather appends records idx of src, which must have st's attribute
// count, a column at a time.
func (st *SubTable) AppendGather(src *SubTable, idx []int32) {
	if len(src.cols) != len(st.cols) {
		panic(fmt.Sprintf("tuple: AppendGather from %d attributes into %d", len(src.cols), len(st.cols)))
	}
	base := st.Extend(len(idx))
	for c := range st.cols {
		st.GatherCol(c, base, src.cols[c], idx)
	}
}

// SetRow overwrites record `row` in place. The number of values must match
// the schema. Only the table's owner may call it: Project and Head share
// column storage.
func (st *SubTable) SetRow(row int, vals []float32) {
	if len(vals) != len(st.cols) {
		panic(fmt.Sprintf("tuple: SetRow with %d values for %d attributes", len(vals), len(st.cols)))
	}
	for i, v := range vals {
		st.cols[i][row] = v
	}
}

// Reorder keeps st's rows rows[0], rows[1], …, in that order, and drops
// the rest, in place: a column at a time, gathered through tmp (at least
// len(rows) values) and copied back. Only the table's owner may call it,
// as SetRow.
func (st *SubTable) Reorder(rows []int32, tmp []float32) {
	tmp = tmp[:len(rows)]
	for i, col := range st.cols {
		for j, r := range rows {
			tmp[j] = col[r]
		}
		st.cols[i] = append(col[:0], tmp...)
	}
	st.rows = len(rows)
}

// Value returns the value at (row, col).
func (st *SubTable) Value(row, col int) float32 { return st.cols[col][row] }

// Col returns the backing slice of a column. Callers must not modify it.
func (st *SubTable) Col(col int) []float32 { return st.cols[col] }

// Row copies record `row` into dst (allocated if nil) and returns it.
func (st *SubTable) Row(row int, dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, len(st.cols))
	}
	for i := range st.cols {
		dst[i] = st.cols[i][row]
	}
	return dst
}

// Bounds computes the bounding box of the sub-table over all attributes, in
// schema order. An empty sub-table yields an empty box.
func (st *SubTable) Bounds() bbox.Box {
	b := bbox.Empty(len(st.cols))
	for d, col := range st.cols {
		for _, v := range col {
			fv := float64(v)
			if fv < b.Lo[d] {
				b.Lo[d] = fv
			}
			if fv > b.Hi[d] {
				b.Hi[d] = fv
			}
		}
	}
	return b
}

// Project returns a new sub-table containing only the named attributes.
// Column data is shared, not copied.
func (st *SubTable) Project(names []string) (*SubTable, error) {
	sub, idxs, err := st.Schema.Project(names)
	if err != nil {
		return nil, err
	}
	cols := make([][]float32, len(idxs))
	for i, idx := range idxs {
		cols[i] = st.cols[idx]
	}
	return &SubTable{ID: st.ID, Schema: sub, cols: cols, rows: st.rows}, nil
}

// FilterRange returns a new sub-table with only the rows whose named
// attributes fall within [lo[i], hi[i]] for every i. This implements the
// paper's range-selection pushdown at the sub-table level.
func (st *SubTable) FilterRange(names []string, lo, hi []float64) (*SubTable, error) {
	if len(names) != len(lo) || len(lo) != len(hi) {
		return nil, fmt.Errorf("tuple: FilterRange arity mismatch (%d names, %d lo, %d hi)", len(names), len(lo), len(hi))
	}
	idxs, err := st.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	out := NewSubTable(st.ID, st.Schema, 0)
	row := make([]float32, len(st.cols))
rows:
	for r := 0; r < st.rows; r++ {
		for k, idx := range idxs {
			v := float64(st.cols[idx][r])
			if v < lo[k] || v > hi[k] {
				continue rows
			}
		}
		out.AppendRow(st.Row(r, row)...)
	}
	return out, nil
}

// Head returns a sub-table holding the first n rows (all rows when n
// exceeds the row count). Column data is shared, not copied — the caller
// must treat both tables as immutable, like Project.
func (st *SubTable) Head(n int) *SubTable {
	return st.Slice(0, max(min(n, st.rows), 0))
}

// Slice returns a sub-table holding rows [lo, hi), sharing column data
// like Head.
func (st *SubTable) Slice(lo, hi int) *SubTable {
	cols := make([][]float32, len(st.cols))
	for i := range cols {
		cols[i] = st.cols[i][lo:hi]
	}
	return &SubTable{ID: st.ID, Schema: st.Schema, cols: cols, rows: hi - lo}
}

// AppendAll appends every row of o, which must share st's schema.
func (st *SubTable) AppendAll(o *SubTable) error {
	if !st.Schema.Equal(o.Schema) {
		return fmt.Errorf("tuple: AppendAll schema mismatch: %v vs %v", st.Schema, o.Schema)
	}
	for i := range st.cols {
		st.cols[i] = append(st.cols[i], o.cols[i]...)
	}
	st.rows += o.rows
	return nil
}

// The key. One definition — Key for a single row, Keys for a whole sub-table
// a column at a time — serves every consumer: hash-join build and probe, the
// out-of-core splits, Grace Hash's routing and bucketing, and the spilling
// GROUP BY's partitioning.
//
// For one or two key attributes the packing is exact (the float32 bit
// patterns occupy disjoint 32-bit halves), so distinct keys never collide —
// matching the paper's joins on (x, y). For more attributes the values are
// folded a word at a time (FNV-1a over 32-bit words: one multiply per
// attribute); the hash-join verifies real attribute equality on probe, so
// collisions cost time, never correctness.
//
// A value packs as its KeyValue: -0 as +0 and every NaN as one NaN, so the
// rows of one GROUP BY group share a key (values in a join's output keep
// their own bits). A join never matches a NaN key, because KeysEqual
// compares with float equality.

const (
	keyOffset64 = 14695981039346656037
	keyPrime64  = 1099511628211
	canonNaN    = 0x7FC00000
)

// KeyValue returns the one value of v's key class: +0 for either zero, the
// quiet NaN 0x7FC00000 for every NaN, v itself otherwise. GROUP BY emits it
// as the group's key.
func KeyValue(v float32) float32 {
	switch {
	case v != v:
		return math.Float32frombits(canonNaN)
	case v == 0:
		return 0
	}
	return v
}

// KeyWord maps v to a uint32 whose unsigned order is the value order:
// sign-fixed IEEE bits, with -0 folded onto +0 and every NaN (any payload,
// either sign) mapped to one word above +Inf. Equal words are one key class.
// ORDER BY sorts by it and GROUP BY groups and orders by it; without the
// rule the float comparison is not a strict weak order once a key is NaN.
func KeyWord(v float32) uint32 {
	switch {
	case v != v:
		return ^uint32(0)
	case v == 0:
		return 1 << 31
	}
	b := math.Float32bits(v)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}

// keyBits is the bit pattern v contributes to a packed key.
func keyBits(v float32) uint64 { return uint64(math.Float32bits(KeyValue(v))) }

// Mix hashes a packed key under a salt (the splitmix64 finalizer over
// key ^ salt). Every hash partitioning of keys goes through it, each with
// its own salt, so no two decisions over the same keys are correlated: a
// joiner's rows still spread over all of its buckets, and a bucket's rows
// over all of an overflow split's partitions and of a hash table's.
func Mix(key, salt uint64) uint64 {
	key ^= salt
	key ^= key >> 30
	key *= 0xBF58476D1CE4E5B9
	key ^= key >> 27
	key *= 0x94D049BB133111EB
	key ^= key >> 31
	return key
}

// The salts Mix is used with.
const (
	// SaltRoute routes a Grace Hash record to its joiner group (h1).
	SaltRoute uint64 = 0xD6E8FEB86659FD93
	// SaltBucket places a Grace Hash record in a spill bucket (h2).
	SaltBucket uint64 = 0xA0761D6478BD642F
	// SaltTable places a key in an in-memory hash table: its partition (low
	// bits) and its slot within the partition (high bits).
	SaltTable uint64 = 0xE7037ED1A0B428DB
)

// SaltSplit is the salt of an out-of-core split at recursion depth d: an
// over-budget join pair's build side, a spilling GROUP BY's partitions.
func SaltSplit(d uint64) uint64 { return (d + 1) * 0x9E3779B97F4A7C15 }

// Key packs the values of the key attributes of record `row` into a uint64.
func (st *SubTable) Key(row int, keyIdxs []int) uint64 {
	switch len(keyIdxs) {
	case 1:
		return keyBits(st.cols[keyIdxs[0]][row])
	case 2:
		return keyBits(st.cols[keyIdxs[0]][row])<<32 | keyBits(st.cols[keyIdxs[1]][row])
	default:
		h := uint64(keyOffset64)
		for _, idx := range keyIdxs {
			h = (h ^ keyBits(st.cols[idx][row])) * keyPrime64
		}
		return h
	}
}

// Keys packs every record's key into dst (reused when large enough, its
// contents overwritten) and returns it: Keys(dst, k)[r] == Key(r, k), one
// pass per key column.
func (st *SubTable) Keys(dst []uint64, keyIdxs []int) []uint64 {
	dst = slices.Grow(dst[:0], st.rows)[:st.rows]
	switch len(keyIdxs) {
	case 1:
		for r, v := range st.cols[keyIdxs[0]][:st.rows] {
			dst[r] = keyBits(v)
		}
	case 2:
		hi, lo := st.cols[keyIdxs[0]][:st.rows], st.cols[keyIdxs[1]][:st.rows]
		for r := range dst {
			dst[r] = keyBits(hi[r])<<32 | keyBits(lo[r])
		}
	default:
		for r := range dst {
			dst[r] = keyOffset64
		}
		for _, idx := range keyIdxs {
			for r, v := range st.cols[idx][:st.rows] {
				dst[r] = (dst[r] ^ keyBits(v)) * keyPrime64
			}
		}
	}
	return dst
}

// KeysEqual reports whether the key attributes of st[row] equal those of
// o[orow], comparing actual values (the collision check behind Key).
func (st *SubTable) KeysEqual(row int, keyIdxs []int, o *SubTable, orow int, oKeyIdxs []int) bool {
	for i := range keyIdxs {
		if st.cols[keyIdxs[i]][row] != o.cols[oKeyIdxs[i]][orow] {
			return false
		}
	}
	return true
}
