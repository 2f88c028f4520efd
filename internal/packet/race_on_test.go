//go:build race

package packet

// raceEnabled reports whether the race detector instruments this build;
// sync.Pool then drops a quarter of its Puts at random, so tests that
// assert a released buffer is the next one handed out skip.
const raceEnabled = true
