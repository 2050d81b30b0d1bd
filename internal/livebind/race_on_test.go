//go:build race

package livebind

// raceEnabled: see race_test.go.
const raceEnabled = true
