//go:build race

package experiments

// raceEnabled reports a -race build, under which the paper-claims gate is
// skipped: it needs quick-mode budgets, not the race detector.
const raceEnabled = true
