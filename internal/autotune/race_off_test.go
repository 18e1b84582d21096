//go:build !race

package autotune

// raceEnabled reports whether the race detector instruments this build; the
// allocation pins skip under it.
const raceEnabled = false
