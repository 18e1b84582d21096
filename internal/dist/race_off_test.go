//go:build !race

package dist

// raceEnabled reports whether the race detector instruments this build; the
// allocation pins skip under it.
const raceEnabled = false
