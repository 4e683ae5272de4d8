//go:build race

package memctrl

// raceEnabled reports a -race build, in which sync.Pool drops a random
// quarter of what it is given, so a test cannot count on reuse.
const raceEnabled = true
