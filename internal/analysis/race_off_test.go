//go:build !race

package analysis

// raceEnabled reports whether the race detector instruments this build; the
// allocation pins skip under it.
const raceEnabled = false
