//go:build !race

package tuple

const poisonPut = false
