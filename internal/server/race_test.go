//go:build race

package server

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a quarter of what is put in it.
const raceEnabled = true
