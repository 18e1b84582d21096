//go:build race

package autotune

const raceEnabled = true
