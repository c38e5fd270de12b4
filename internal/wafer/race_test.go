//go:build race

package wafer

// raceEnabled reports a -race build, under which the slowest tests narrow
// their matrices: the race detector needs the code paths, not every input.
const raceEnabled = true
