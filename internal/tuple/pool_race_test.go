//go:build race

package tuple

import "testing"

// TestPutBufPoisons releases an encoded sub-table's buffer it still holds,
// against PutBuf's ownership rule, and reads it: under the race detector
// every byte of its capacity is 0xFF, not the rows a late reader expects.
func TestPutBufPoisons(t *testing.T) {
	st := NewSubTable(ID{}, NewSchema(Attr{Name: "v", Kind: Measure}), 4)
	for i := range 4 {
		st.AppendRow(float32(i))
	}
	buf := Encode(GetBuf(EncodedSize(st)), st)
	held := buf[:cap(buf)]
	PutBuf(buf)
	for i, c := range held {
		if c != 0xFF {
			t.Fatalf("byte %d of %d is %#x after PutBuf, want 0xff", i, len(held), c)
		}
	}
}
