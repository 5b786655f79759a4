//go:build !race

package plan

const poisonFreed = false
