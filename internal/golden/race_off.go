//go:build !race

package golden

// RaceEnabled reports whether the race detector instruments this build: a
// test shrinks its problem or skips a wall-clock or allocation bound under
// the detector's ~10× slowdown.
const RaceEnabled = false
