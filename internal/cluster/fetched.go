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
// A node cache also holds two things IJ derived from sub-tables as Fetched
// values, beside them: a left sub-table's decoded rows (FetchedSubTable,
// kept only when its frame is encoded) and the match pairs of edges
// (FetchedPairs). So a Fetched is rows, an encoded frame, or pairs. What is
// decoded per use follows. A left carrier is decoded once for all its
// consecutive edges; a later statement that finds its rows kept does not
// decode it, and a row-major carrier is its own rows. A right carrier is
// decoded whole, into its joiner's buffer (SubTableIn), once per probe; an
// edge that finds its pairs cached decodes only the right payload columns
// its output holds (Columns), and a row-major carrier not at all.
type Fetched struct {
	st  *tuple.SubTable
	enc *colenc.Table
	// pairs are a cached edge's match pairs; st and enc are then nil.
	pairs *hashjoin.Pairs
}

// FetchedSubTable wraps decoded rows: a row-major frame, or a left
// sub-table's rows decoded from an encoded one and kept beside it.
func FetchedSubTable(st *tuple.SubTable) *Fetched { return &Fetched{st: st} }

// FetchedPairs wraps one edge's match pairs, resident at p.Bytes(). Such
// a value answers Pairs and StoredBytes only.
func FetchedPairs(p *hashjoin.Pairs) *Fetched { return &Fetched{pairs: p} }

// Pairs returns the match pairs of a FetchedPairs value, else nil.
func (f *Fetched) Pairs() *hashjoin.Pairs { return f.pairs }

// FetchedEncoded wraps a compressed columnar table.
func FetchedEncoded(t *colenc.Table) *Fetched { return &Fetched{enc: t} }

// Encoded reports whether the value is held in compressed form.
func (f *Fetched) Encoded() bool { return f.enc != nil }

// SubTable returns the decoded rows. For an encoded value this decodes on
// every call — deliberately: memoizing the decoded form would re-inflate
// the frame's resident bytes and cancel the point of caching compressed.
// (IJ keeps a left's decoded rows as an entry of their own, only in free
// room.) The decode is exact, so repeated calls are byte-identical.
func (f *Fetched) SubTable() (*tuple.SubTable, error) {
	if f.st != nil {
		return f.st, nil
	}
	return f.enc.SubTable()
}

// DecodeBuf is one consumer's reusable decode storage: a column slice per
// attribute, grown to the largest frame decoded into it and overwritten
// by the next decode. The zero value is ready. A buffer and the rows
// decoded into it belong to one goroutine at a time.
type DecodeBuf struct {
	cols [][]float32
	view [][]float32
	all  []int // every column of the last whole-frame decode
}

// fit returns b.cols and b.view at n entries each.
func (b *DecodeBuf) fit(n int) (cols, view [][]float32) {
	for len(b.cols) < n {
		b.cols = append(b.cols, nil)
	}
	if cap(b.view) < n {
		b.view = make([][]float32, n)
	}
	b.view = b.view[:n]
	return b.cols[:n], b.view
}

// SubTableIn returns f's rows for a caller that is done with them before
// it next uses buf: a row-major value's own rows, read as is, or an
// encoded value decoded whole into buf.
func (f *Fetched) SubTableIn(buf *DecodeBuf) (*tuple.SubTable, error) {
	if f.st != nil {
		return f.st, nil
	}
	n := f.enc.Schema.NumAttrs()
	cols, _ := buf.fit(n)
	if len(buf.all) != n {
		buf.all = colenc.AllColumns(n)
	}
	if err := f.enc.DecodeColumns(cols, buf.all); err != nil {
		return nil, err
	}
	return tuple.FromColumns(f.enc.ID, f.enc.Schema, cols)
}

// Columns returns the columns cols (schema positions) of f's rows, indexed
// by schema position, for a caller that is done with them before it next
// uses buf: a row-major value's own columns, read as is, or an encoded
// value's columns cols decoded alone into buf — none when cols is nil or
// empty. An entry outside cols may be nil.
func (f *Fetched) Columns(buf *DecodeBuf, cols []int) ([][]float32, error) {
	if f.st != nil {
		_, view := buf.fit(f.st.Schema.NumAttrs())
		for c := range view {
			view[c] = f.st.Col(c)
		}
		return view, nil
	}
	dec, view := buf.fit(f.enc.Schema.NumAttrs())
	if err := f.enc.DecodeColumns(dec, cols); err != nil {
		return nil, err
	}
	clear(view)
	for _, c := range cols {
		view[c] = dec[c]
	}
	return view, nil
}

// Schema returns the rows' schema without decoding.
func (f *Fetched) Schema() tuple.Schema {
	if f.st != nil {
		return f.st.Schema
	}
	return f.enc.Schema
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
	case f.pairs != nil:
		return f.pairs.Bytes()
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
