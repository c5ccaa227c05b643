//go:build race

package scenario

// raceEnabled lets TestLiveGridMatchesGridsim stand down, and
// TestChaosMinorityLive drop its latency bound: the race detector's
// overhead lands in every live response time (an auction takes 6x
// longer on this repo's sandbox, more on a shared runner) and none of
// it in gridsim's, so it eats the tolerance the tests assert.
const raceEnabled = true
