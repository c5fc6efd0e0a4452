//go:build race

package vm

// raceEnabled: the race runtime allocates on its own schedule, so
// allocation counts of code that allocates at all wander from run to run.
const raceEnabled = true
