//go:build !race

package machine

// raceEnabled reports whether the race detector instruments this build; the
// wall-clock tripwire shrinks under the detector's ~10× slowdown.
const raceEnabled = false
