//go:build race

package addrindex

// raceEnabled reports whether the race detector is compiled in; the
// memory gate skips under it because instrumentation allocates.
const raceEnabled = true
