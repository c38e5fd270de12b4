//go:build !race

package wafer

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
