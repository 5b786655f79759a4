package cluster

import (
	"sciview/internal/colenc"
	"sciview/internal/tuple"
)

// Fetched is a fetch result as the compute tier carries it: either a
// decoded row-major sub-table (the classic SVT1 path) or the compressed
// columnar form (SVT2). Caches, the singleflight groups and replica
// failover all move Fetched values, so the encoded representation travels
// end to end — and a cached sub-table stays resident at its compressed
// size, decoded only when a joiner actually consumes its rows: IJ decodes a
// left carrier once per hash table built from it (edges that reuse the
// table take the carrier from the cache but never decode it) and a right
// carrier once per probe.
type Fetched struct {
	st  *tuple.SubTable
	enc *colenc.Table
}

// FetchedSubTable wraps a decoded sub-table.
func FetchedSubTable(st *tuple.SubTable) *Fetched { return &Fetched{st: st} }

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
	if f.enc != nil {
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
