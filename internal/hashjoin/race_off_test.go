//go:build !race

package hashjoin

const raceEnabled = false
