//go:build race

package trace

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool deliberately drops a share of what is put back into
// it, so TestReplayRecyclesDecodeBuffers skips and
// TestReplayFrameDecodeAllocs measures replays with empty pools.
const raceEnabled = true
