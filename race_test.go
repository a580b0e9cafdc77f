//go:build race

package clustersched

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
