//go:build race

package tuple

// poisonPut: under the race detector PutBuf overwrites a buffer with 0xFF
// bytes (a NaN as float32, -1 as an integer) before pooling it, so a
// caller that reads a buffer after releasing it reads garbage and fails
// its checks.
const poisonPut = true
