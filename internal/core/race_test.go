//go:build race

package core

// raceEnabled reports a -race build. The race detector slows the
// solver's single-goroutine loops about thirteenfold and has nothing to
// check in them, so the bit-for-bit grids thin out under it; the
// concurrent tests run in full.
const raceEnabled = true
