//go:build race

package hdpat_test

// raceEnabled reports a -race build, under which the Table I conformance
// legs skip: the race detector needs the code paths, not every input.
const raceEnabled = true
