//go:build !race

package daemon

import "time"

// finishLagMedian bounds TestRunLoopFinishLag's median: the loop's
// timer wakes it within a fraction of a millisecond.
const finishLagMedian = 300 * time.Microsecond
