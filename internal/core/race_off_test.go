//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build; it
// allocates on its own account, so allocation pins skip under it.
const raceEnabled = false
