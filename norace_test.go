//go:build !race

package clustersched

const raceEnabled = false
