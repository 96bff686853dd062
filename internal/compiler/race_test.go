//go:build race

package compiler_test

// raceEnabled reports whether the race detector is on; it changes
// escape analysis and with it allocation counts.
const raceEnabled = true
