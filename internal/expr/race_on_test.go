//go:build race

package expr

const raceEnabled = true
