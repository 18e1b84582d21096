//go:build !race

package expr

// raceEnabled reports whether the race detector instruments this build; the
// allocation pins skip under it.
const raceEnabled = false
