package colenc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sciview/internal/tuple"
)

func schema3(measures ...string) tuple.Schema {
	attrs := []tuple.Attr{
		{Name: "x", Kind: tuple.Coord},
		{Name: "y", Kind: tuple.Coord},
		{Name: "z", Kind: tuple.Coord},
	}
	for _, m := range measures {
		attrs = append(attrs, tuple.Attr{Name: m, Kind: tuple.Measure})
	}
	return tuple.Schema{Attrs: attrs}
}

// gridTable builds the oilres-like shape: sequential integral coordinates
// (x the inner loop) and pseudo-random measures.
func gridTable(t *testing.T, nx, ny, nz int, measures ...string) *tuple.SubTable {
	t.Helper()
	st := tuple.NewSubTable(tuple.ID{Table: 1, Chunk: 2}, schema3(measures...), nx*ny*nz)
	rng := rand.New(rand.NewSource(42))
	row := make([]float32, 3+len(measures))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				row[0], row[1], row[2] = float32(x), float32(y), float32(z)
				for m := range measures {
					row[3+m] = rng.Float32()
				}
				st.AppendRow(row...)
			}
		}
	}
	return st
}

func mustEqual(t *testing.T, got, want *tuple.SubTable) {
	t.Helper()
	if got.ID != want.ID {
		t.Fatalf("id %v, want %v", got.ID, want.ID)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema %v, want %v", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.Schema.NumAttrs(); c++ {
		g, w := got.Col(c), want.Col(c)
		for r := range w {
			if math.Float32bits(g[r]) != math.Float32bits(w[r]) {
				t.Fatalf("col %d row %d: %v (bits %#x), want %v (bits %#x)",
					c, r, g[r], math.Float32bits(g[r]), w[r], math.Float32bits(w[r]))
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	st := gridTable(t, 8, 8, 8, "oilp")
	enc := FromSubTable(st)
	back, err := enc.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, back, st)
	if enc.StoredBytes() >= st.Bytes() {
		t.Errorf("grid table did not compress: stored %d, decoded %d", enc.StoredBytes(), st.Bytes())
	}
	// A nil or empty column list decodes nothing and leaves dst as it was;
	// a subset decodes exactly its columns.
	for _, cols := range [][]int{nil, {}, {3, 1}} {
		stale := []float32{7}
		dst := [][]float32{stale, stale, stale, stale}
		if err := enc.DecodeColumns(dst, cols); err != nil {
			t.Fatal(err)
		}
		for c, col := range dst {
			decoded := len(cols) == 2 && (c == 3 || c == 1)
			switch {
			case decoded && !slices.Equal(col, st.Col(c)):
				t.Errorf("cols %v: column %d not decoded", cols, c)
			case !decoded && (len(col) != 1 || col[0] != 7):
				t.Errorf("cols %v: column %d written: %d rows", cols, c, len(col))
			}
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	st := gridTable(t, 8, 4, 2, "oilp", "wp")
	enc := FromSubTable(st)
	frame := Encode(nil, enc)
	if len(frame) != EncodedSize(enc) {
		t.Fatalf("frame is %d bytes, EncodedSize says %d", len(frame), EncodedSize(enc))
	}
	dec, n, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
	}
	back, err := dec.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, back, st)
	// Decode must copy out of the source buffer.
	for i := range frame {
		frame[i] = 0xFF
	}
	back2, err := dec.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, back2, st)
}

func TestEncodingChoices(t *testing.T) {
	st := gridTable(t, 8, 8, 8, "oilp")
	enc := FromSubTable(st)
	// z has 8 long runs → RLE; x cycles 0..7 (runs of 1, 8 distinct) →
	// dict or delta beats raw; oilp is 512 random floats → raw.
	if got := enc.Cols[2].Enc; got != EncRLE {
		t.Errorf("z column encoded as %d, want RLE", got)
	}
	if got := enc.Cols[0].Enc; got == EncRaw || got == EncRLE {
		t.Errorf("x column encoded as %d, want dict or delta", got)
	}
	if got := enc.Cols[3].Enc; got != EncRaw {
		t.Errorf("oilp column encoded as %d, want raw", got)
	}
}

func TestExactnessEdgeCases(t *testing.T) {
	nan1 := math.Float32frombits(0x7FC00001)
	nan2 := math.Float32frombits(0x7FC00002)
	negZero := math.Float32frombits(0x80000000)
	cols := [][]float32{
		{0, negZero, 0, negZero, 1, -1, nan1, nan2, nan1, 16777216, -16777216, 0.5},
	}
	st, err := tuple.FromColumns(tuple.ID{Table: 3, Chunk: 4},
		tuple.Schema{Attrs: []tuple.Attr{{Name: "v", Kind: tuple.Measure}}}, cols)
	if err != nil {
		t.Fatal(err)
	}
	enc := FromSubTable(st)
	frame := Encode(nil, enc)
	dec, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dec.SubTable()
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, back, st)
}

func TestEachEncodingRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]float32{
		"raw":   nil,
		"rle":   nil,
		"dict":  nil,
		"delta": nil,
		"empty": {},
	}
	raw := make([]float32, 300)
	for i := range raw {
		raw[i] = rng.Float32()*2e6 - 1e6
	}
	cases["raw"] = raw
	rle := make([]float32, 300)
	for i := range rle {
		rle[i] = float32(i / 50)
	}
	cases["rle"] = rle
	dict := make([]float32, 300)
	vals := []float32{1.5, -2.25, 3.125, 100}
	for i := range dict {
		dict[i] = vals[rng.Intn(len(vals))]
	}
	cases["dict"] = dict
	delta := make([]float32, 300)
	for i := range delta {
		delta[i] = float32(i%77 - 20)
	}
	cases["delta"] = delta
	for name, col := range cases {
		t.Run(name, func(t *testing.T) {
			enc := encodeColumn(col)
			dst := make([]float32, len(col))
			if err := decodeColumn(enc, len(col), dst); err != nil {
				t.Fatal(err)
			}
			for i := range col {
				if math.Float32bits(dst[i]) != math.Float32bits(col[i]) {
					t.Fatalf("row %d: %v, want %v", i, dst[i], col[i])
				}
			}
		})
	}
}

func TestWireSizeMatchesEncode(t *testing.T) {
	st := gridTable(t, 8, 8, 4, "oilp", "wp")
	if got, want := WireSize(st), EncodedSize(FromSubTable(st)); got != want {
		t.Fatalf("WireSize = %d, EncodedSize = %d", got, want)
	}
}

func TestDecodeHostile(t *testing.T) {
	st := gridTable(t, 4, 4, 4, "oilp")
	frame := Encode(nil, FromSubTable(st))
	// Truncations at every length never panic.
	for n := 0; n < len(frame); n++ {
		if _, _, err := Decode(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Single-byte corruptions never panic (they may still decode).
	for i := 0; i < len(frame); i++ {
		mut := append([]byte{}, frame...)
		mut[i] ^= 0x40
		if tab, _, err := Decode(mut); err == nil {
			tab.SubTable() // must not panic either
		}
	}
}
