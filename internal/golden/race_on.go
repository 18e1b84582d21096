//go:build race

package golden

const RaceEnabled = true
