//go:build race

package daemon

import "time"

// finishLagMedian bounds TestRunLoopFinishLag's median under the race
// detector, which slows every pass the loop makes.
const finishLagMedian = 2 * time.Millisecond
