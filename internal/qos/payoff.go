package qos

import (
	"errors"
	"fmt"
)

// Payoff is the experimental payoff-function feature of the paper's QoS
// (§2.1): a soft and a hard deadline with relative payoff as a function of
// completion time. The client pays AtSoft if the job completes at or
// before the soft deadline; between the soft and hard deadlines the payoff
// is linearly interpolated from AtSoft down to AtHard; after the hard
// deadline the provider instead incurs Penalty (a non-negative number;
// the provider's revenue is -Penalty).
//
// "The payoff for the job linearly decreases after the soft deadline, and
// may have a significant penalty after the hard deadline." (paper §4.1)
type Payoff struct {
	Soft    float64 `json:"soft,omitempty"`    // soft deadline (seconds from submission)
	Hard    float64 `json:"hard,omitempty"`    // hard deadline (seconds from submission)
	AtSoft  float64 `json:"at_soft,omitempty"` // payoff when completing by Soft
	AtHard  float64 `json:"at_hard,omitempty"` // payoff when completing exactly at Hard
	Penalty float64 `json:"penalty,omitempty"` // charged to the provider after Hard
}

// Zero reports whether the payoff function is unset. It compares field
// by field, not the whole struct, which would be a call.
func (p Payoff) Zero() bool {
	return p.Soft == 0 && p.Hard == 0 && p.AtSoft == 0 && p.AtHard == 0 && p.Penalty == 0
}

// Payoff validation errors.
var (
	ErrPayoffDeadlines = errors.New("qos: payoff requires 0 < soft <= hard")
	ErrPayoffValues    = errors.New("qos: payoff values must be non-negative and at_soft >= at_hard")
)

// Validate checks the payoff for internal consistency. The zero payoff is
// valid and means "no payoff function".
func (p Payoff) Validate() error {
	if p.Zero() {
		return nil
	}
	if p.Soft <= 0 || p.Hard < p.Soft {
		return fmt.Errorf("%w: soft=%v hard=%v", ErrPayoffDeadlines, p.Soft, p.Hard)
	}
	if p.AtSoft < 0 || p.AtHard < 0 || p.Penalty < 0 || p.AtSoft < p.AtHard {
		return fmt.Errorf("%w: at_soft=%v at_hard=%v penalty=%v", ErrPayoffValues, p.AtSoft, p.AtHard, p.Penalty)
	}
	return nil
}

// Value returns what the client pays if the job completes `elapsed`
// seconds after submission. Negative results mean the provider pays the
// penalty. The zero payoff returns 0 for any time (price is then set
// purely by the bid).
func (p Payoff) Value(elapsed float64) float64 {
	if p.Zero() {
		return 0
	}
	switch {
	case elapsed <= p.Soft:
		return p.AtSoft
	case elapsed <= p.Hard:
		frac := (elapsed - p.Soft) / (p.Hard - p.Soft)
		return p.AtSoft + frac*(p.AtHard-p.AtSoft)
	default:
		return -p.Penalty
	}
}

// WithDeadline builds a steep post-deadline-dropoff payoff: full value
// until soft, declining to a fraction at hard, then penalized. It is a
// convenience used by workload generators ("a job with a deadline would
// have a steep post-deadline dropoff in the payoff vs. time function",
// paper §2.1).
func WithDeadline(value, soft, hard, penalty float64) Payoff {
	return Payoff{Soft: soft, Hard: hard, AtSoft: value, AtHard: value * 0.25, Penalty: penalty}
}
