package main

import (
	"fmt"
	"math"

	"dynmds/internal/net"
)

// The correctness checks. Each compares a figure the program reports
// against one computed apart from it — from the configuration, or from
// a law the simulated system must obey — so that a planted wrong input
// makes it fail (see checks_test.go).

// littleTolerance bounds |X·(R+Z) − N| / N. Each client's closed loop
// alternates one response and one think time, so over the run the sum
// of both per client fills the horizon; the residue is one partial
// cycle per client and the sampling error of the mean think time.
const littleTolerance = 0.02

// arrivalSigmas is the Poisson bound on arrival counts: five standard
// deviations (√mean) either side of the configured mean.
const arrivalSigmas = 5

// checkOutstanding: a closed-loop client has at most one op in flight.
func checkOutstanding(issued, completed uint64, clients int) error {
	if completed > issued || issued-completed > uint64(clients) {
		return fmt.Errorf("closed loop: issued %d − completed %d exceeds %d clients", issued, completed, clients)
	}
	return nil
}

// checkLittle verifies Little's law for the closed loop, N = X·(R+Z):
// n clients, x completions per second, mean response r and configured
// mean think time z, both in seconds.
func checkLittle(n int, x, r, z float64) error {
	got := x * (r + z)
	if dev := math.Abs(got-float64(n)) / float64(n); !(dev <= littleTolerance) {
		return fmt.Errorf("Little's law: X·(R+Z) = %.4g·(%.4g+%.4g) = %.2f, want %d clients (±%.0f%%)",
			x, r, z, got, n, 100*littleTolerance)
	}
	return nil
}

// checkDrained: after a drain every issued op completed or timed out.
func checkDrained(issued, completed, timedOut uint64) error {
	if issued != completed+timedOut {
		return fmt.Errorf("after drain: issued %d != completed %d + timed out %d", issued, completed, timedOut)
	}
	return nil
}

// checkFabric: on a drained, fault-free cluster every message class
// delivered exactly what it sent.
func checkFabric(s net.Stats) error {
	for c := 0; c < net.NumClasses; c++ {
		pc := s.PerClass[c]
		if pc.Sent != pc.Delivered+pc.Dropped {
			return fmt.Errorf("fabric class %s: sent %d != delivered %d + dropped %d",
				net.Class(c), pc.Sent, pc.Delivered, pc.Dropped)
		}
	}
	return nil
}

// checkRecalls: every lease recall an authority sent reached its client
// and was acknowledged.
func checkRecalls(sent, delivered, acked uint64) error {
	if sent != delivered || delivered != acked {
		return fmt.Errorf("lease recalls: sent %d, delivered %d, acked %d", sent, delivered, acked)
	}
	return nil
}

// checkArrivals: the arrival count lies within Poisson bounds of the
// mean the configured rates imply.
func checkArrivals(got uint64, mean float64) error {
	if dev := math.Abs(float64(got) - mean); !(dev <= arrivalSigmas*math.Sqrt(mean)) {
		return fmt.Errorf("arrivals: %d, configured mean %.0f (±%.0f)", got, mean, arrivalSigmas*math.Sqrt(mean))
	}
	return nil
}

// checkDigest: a run restored from a checkpoint ends exactly where the
// uninterrupted run ended.
func checkDigest(restored, uninterrupted string) error {
	if restored != uninterrupted {
		return fmt.Errorf("restored digest %q != uninterrupted %q", restored, uninterrupted)
	}
	return nil
}

// rateSegment is a span of virtual seconds during which clients arrive
// at mul times the base rate.
type rateSegment struct {
	from, to, mul float64
}

// clientArrivals is one open-loop client's mean arrival count over the
// segments. The population draws each exponential inter-arrival at the
// rate in force when the previous arrival fired and rounds it up to the
// timer-wheel tick, so after a rate change the pending draws still run
// at their old rate. p[j] tracks the probability that the pending draw
// was made in segment j's regime; inside a segment every other regime
// decays exponentially while arrivals move clients into the current one.
func clientArrivals(base, tick float64, segs []rateSegment) float64 {
	rate := func(mul float64) float64 { return 1 / (1/(base*mul) + tick/2) }
	p := make([]float64, len(segs))
	if len(segs) > 0 {
		p[0] = 1
	}
	total := 0.0
	for c, s := range segs {
		d := s.to - s.from
		lc := rate(s.mul)
		total += lc * d
		pc := 1.0
		for j := 0; j < c; j++ {
			lj := rate(segs[j].mul)
			total += (lj - lc) * p[j] * (1 - math.Exp(-lj*d)) / lj
			p[j] *= math.Exp(-lj * d)
			pc -= p[j]
		}
		p[c] = pc
	}
	return total
}
