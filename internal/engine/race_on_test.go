//go:build race

package engine

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation gate only holds without it.
const raceEnabled = true
