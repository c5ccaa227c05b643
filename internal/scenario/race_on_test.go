//go:build race

package scenario

// raceEnabled lets TestLiveGridMatchesGridsim stand down: the race
// detector's overhead lands in every live response time (an auction
// takes 6x longer on this repo's sandbox, more on a shared runner) and
// none of it in gridsim's, so it eats the tolerance the test asserts.
const raceEnabled = true
