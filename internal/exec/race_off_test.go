//go:build !race

package exec

// raceEnabled reports whether the race detector instruments this build; the
// allocation pins skip under it.
const raceEnabled = false
