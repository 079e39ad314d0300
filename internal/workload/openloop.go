package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Poisson is a memoryless open-loop arrival process with a fixed mean
// rate — the standard model for a large population of independent users
// each issuing requests at a small individual rate. Open-loop operations
// arrive on their own schedule regardless of how fast the system drains
// them, which is the regime where queueing delay — and therefore tail
// latency — becomes visible; a closed-loop harness (a captive thread
// issues the next op the instant the previous one returns) cannot
// observe queueing at all.
type Poisson struct {
	rate float64 // ops per Mcycle
}

// NewPoisson builds a Poisson arrival process with the given aggregate rate
// in operations per million cycles.
func NewPoisson(rate float64) (Poisson, error) {
	if rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		return Poisson{}, fmt.Errorf("workload: poisson rate must be positive and finite, got %v", rate)
	}
	return Poisson{rate: rate}, nil
}

// NewPopulation models `users` simulated users who each issue one operation
// every `thinkCycles` virtual cycles on average. For large populations the
// superposition of the per-user processes is Poisson with aggregate rate
// users/thinkCycles — this is the "millions of users" knob: the offered
// load is set by the population, not by how fast the system responds.
func NewPopulation(users uint64, thinkCycles int64) (Poisson, error) {
	if users == 0 {
		return Poisson{}, fmt.Errorf("workload: population needs at least one user")
	}
	if thinkCycles <= 0 {
		return Poisson{}, fmt.Errorf("workload: think time must be positive, got %d", thinkCycles)
	}
	return NewPoisson(float64(users) / float64(thinkCycles) * 1e6)
}

// Rate returns the mean arrival rate in operations per million cycles
// (ops/Mcycle).
func (p Poisson) Rate() float64 { return p.rate }

// GenSchedule generates an intended-arrival-time schedule: every arrival
// time in [0, horizon), strictly increasing, drawn from p with r. The
// returned times are the open-loop contract — each operation's latency is
// measured from its intended time, never from when a worker got around to
// dequeuing it, which is what makes the recorded percentiles
// coordinated-omission safe. The schedule is a pure function of (p,
// horizon, r), so it is deterministic per seed — the property every
// bit-identity test in this repository leans on.
func GenSchedule(p Poisson, horizon int64, r *rand.Rand) []int64 {
	if horizon <= 0 {
		return nil
	}
	// Pre-size from the mean rate; overload schedules are bounded by the
	// horizon, not by completion, so this cannot run away.
	est := int(p.rate * float64(horizon) / 1e6)
	out := make([]int64, 0, est+8)
	mean := 1e6 / p.rate // cycles between arrivals
	now := int64(0)
	for {
		// An exponential gap, clamped to >= 1 cycle so the schedule
		// always makes progress.
		now += max(int64(math.Round(r.ExpFloat64()*mean)), 1)
		if now >= horizon {
			return out
		}
		out = append(out, now)
	}
}
