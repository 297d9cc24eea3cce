//go:build race

package heapmd

// raceEnabled reports whether the race detector is compiled in; the
// byte budgets that depend on sync.Pool reuse skip under it, because
// its sync.Pool drops items at random.
const raceEnabled = true
