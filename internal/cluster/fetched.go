package cluster

import (
	"sciview/internal/colenc"
	"sciview/internal/hashjoin"
	"sciview/internal/tuple"
)

// Fetched is a fetch result as the compute tier carries it: either a
// decoded row-major sub-table (the classic SVT1 path) or the compressed
// columnar form (SVT2). Caches, the singleflight groups and replica
// failover all move Fetched values, so the encoded representation travels
// end to end — and a cached sub-table stays resident at its compressed
// size, decoded only when a joiner actually consumes its rows.
//
// A node cache also holds IJ's built hash tables as Fetched values
// (FetchedTable), beside the sub-tables they were built from. What is
// decoded per use follows: a right carrier once per probe; a left carrier
// once per hash table built from it — edges that reuse the table, and
// later statements that find it cached, take the carrier from the cache
// but never decode it.
type Fetched struct {
	st  *tuple.SubTable
	enc *colenc.Table
	// ht and htBytes are a cached hash table and its resident size; st is
	// then the table's left sub-table.
	ht      *hashjoin.HashTable
	htBytes int
}

// FetchedSubTable wraps a decoded sub-table.
func FetchedSubTable(st *tuple.SubTable) *Fetched { return &Fetched{st: st} }

// TableBytes is the resident size of a hash table built over frame's
// rows: its arrays plus, when frame is encoded, the decoded rows it
// references. A row-major frame's rows are the frame's own, charged
// already, and stay resident while the table is: the cache drops every
// table before it evicts a frame.
func TableBytes(ht *hashjoin.HashTable, frame *Fetched) int {
	if frame.Encoded() {
		return ht.Bytes() + ht.Left().Bytes()
	}
	return ht.Bytes()
}

// FetchedTable wraps a hash table resident at bytes (TableBytes).
func FetchedTable(ht *hashjoin.HashTable, bytes int) *Fetched {
	return &Fetched{st: ht.Left(), ht: ht, htBytes: bytes}
}

// Table returns the hash table of a FetchedTable value, else nil.
func (f *Fetched) Table() *hashjoin.HashTable { return f.ht }

// FetchedEncoded wraps a compressed columnar table.
func FetchedEncoded(t *colenc.Table) *Fetched { return &Fetched{enc: t} }

// Encoded reports whether the value is held in compressed form.
func (f *Fetched) Encoded() bool { return f.enc != nil }

// SubTable returns the decoded rows. For an encoded value this decodes on
// every call — deliberately: memoizing the decoded form would re-inflate
// the cache's resident bytes and cancel the point of caching compressed.
// The decode is exact, so repeated calls are byte-identical.
func (f *Fetched) SubTable() (*tuple.SubTable, error) {
	if f.st != nil {
		return f.st, nil
	}
	return f.enc.SubTable()
}

// NumRows returns the record count without decoding.
func (f *Fetched) NumRows() int {
	if f.st != nil {
		return f.st.NumRows()
	}
	return f.enc.NumRows()
}

// DecodedBytes returns the row-major payload size (rows × record size) —
// the quantity the engines' transfer accounting has always used.
func (f *Fetched) DecodedBytes() int {
	if f.st != nil {
		return f.st.Bytes()
	}
	return f.enc.DecodedBytes()
}

// StoredBytes returns the resident in-memory footprint: the compressed
// size for encoded values, the row-major size otherwise. Caches charge
// this, so the resident-bytes gauge reflects what is actually held.
func (f *Fetched) StoredBytes() int {
	switch {
	case f.ht != nil:
		return f.htBytes
	case f.enc != nil:
		return f.enc.StoredBytes()
	}
	return f.st.Bytes()
}

// WireBytes returns the bytes this value occupied on the wire: the SVT2
// frame size for encoded values, the row-major payload size otherwise
// (matching the modeled transfer the uncompressed path has always
// charged).
func (f *Fetched) WireBytes() int {
	if f.enc != nil {
		return f.enc.StoredBytes()
	}
	return f.st.Bytes()
}
