package colenc

import (
	"math"
	"testing"

	"sciview/internal/tuple"
)

// FuzzWireCodec drives the SVT2 codec with arbitrary bytes. Properties:
// hostile input never panics, through the whole-table decode or a
// column-subset one; wherever the whole-table decode succeeds, the subset
// decode, into storage left over from other frames, reproduces its
// columns; and any frame that decodes must re-encode and decode again to
// an identical sub-table (encode∘decode is the identity on the codec's
// image).
func FuzzWireCodec(f *testing.F) {
	seed := func(st *tuple.SubTable) {
		f.Add(Encode(nil, FromSubTable(st)))
	}
	attrs := tuple.Schema{Attrs: []tuple.Attr{
		{Name: "x", Kind: tuple.Coord},
		{Name: "y", Kind: tuple.Coord},
		{Name: "oilp", Kind: tuple.Measure},
	}}
	st := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 7}, attrs, 64)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			st.AppendRow(float32(x), float32(y), float32(x*y)/63.0)
		}
	}
	seed(st)
	// A table exercising every encoding: runs, a small dictionary, a delta
	// ramp, raw noise, and awkward bit patterns.
	mixed := tuple.NewSubTable(tuple.ID{Table: 2, Chunk: 3}, tuple.Schema{Attrs: []tuple.Attr{
		{Name: "r", Kind: tuple.Coord},
		{Name: "d", Kind: tuple.Coord},
		{Name: "s", Kind: tuple.Coord},
		{Name: "m", Kind: tuple.Measure},
	}}, 32)
	for i := 0; i < 32; i++ {
		m := float32(i) * 0.37
		if i%5 == 0 {
			m = math.Float32frombits(0x7FC00000 | uint32(i)) // NaN payloads
		}
		mixed.AppendRow(float32(i/8), float32(i), []float32{1.5, -2.5}[i%2], m)
	}
	seed(mixed)
	empty := tuple.NewSubTable(tuple.ID{Table: 3, Chunk: 0}, attrs, 0)
	seed(empty)
	f.Add([]byte{})
	f.Add([]byte{0x32, 0x54, 0x56, 0x53}) // bare magic

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, n, err := Decode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		// A column subset and stale destination storage, both picked from
		// the input.
		na := tab.Schema.NumAttrs()
		var sub []int
		dst := make([][]float32, na)
		for c := 0; c < na; c++ {
			if len(data)>>(c%8)&1 == 1 {
				sub = append(sub, c)
			}
			dst[c] = make([]float32, c%3, c%3+len(data)%7)
		}
		subErr := tab.DecodeColumns(dst, sub)
		if tab.DecodeColumns(dst, []int{na}) == nil {
			t.Fatalf("column %d of %d accepted", na, na)
		}
		st, err := tab.SubTable()
		if err != nil {
			return // internally inconsistent but safely rejected
		}
		if subErr != nil {
			t.Fatalf("subset %v rejected where the whole table decodes: %v", sub, subErr)
		}
		for _, c := range sub {
			want := st.Col(c)
			if len(dst[c]) != len(want) {
				t.Fatalf("subset col %d: %d rows, want %d", c, len(dst[c]), len(want))
			}
			for r := range want {
				if math.Float32bits(dst[c][r]) != math.Float32bits(want[r]) {
					t.Fatalf("subset col %d row %d: %x, want %x", c, r, math.Float32bits(dst[c][r]), math.Float32bits(want[r]))
				}
			}
		}
		// Round trip: re-encode the decoded rows, decode again, compare
		// bit patterns.
		frame := Encode(nil, FromSubTable(st))
		tab2, _, err := Decode(frame)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		st2, err := tab2.SubTable()
		if err != nil {
			t.Fatalf("re-encoded frame undecodable: %v", err)
		}
		if st2.NumRows() != st.NumRows() || !st2.Schema.Equal(st.Schema) || st2.ID != st.ID {
			t.Fatalf("round trip changed shape: %v/%d rows vs %v/%d rows",
				st2.ID, st2.NumRows(), st.ID, st.NumRows())
		}
		for c := 0; c < st.Schema.NumAttrs(); c++ {
			a, b := st.Col(c), st2.Col(c)
			for r := range a {
				if math.Float32bits(a[r]) != math.Float32bits(b[r]) {
					t.Fatalf("round trip changed col %d row %d: %x vs %x",
						c, r, math.Float32bits(a[r]), math.Float32bits(b[r]))
				}
			}
		}
	})
}
