package main

import (
	"math"
	"math/rand/v2"
)

// spin is the benchmark's unit of CPU work: n dependent additions. Its
// result has a closed form (spinClosed), so outputs are checked without
// redoing the work.
func spin(n uint32, salt uint64) uint64 {
	acc := salt
	for k := uint64(0); k < uint64(n); k++ {
		acc += salt + k
	}
	return acc
}

// spinClosed is spin's result computed directly: salt + n·salt +
// n(n-1)/2, in the same wrapping uint64 arithmetic.
func spinClosed(n uint32, salt uint64) uint64 {
	m := uint64(n)
	return salt + m*salt + m*(m-1)/2
}

// newRNG returns the generator all of a run's inputs come from; stream
// separates the inputs of different workloads drawn from one seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// uniformIters draws n spin lengths uniformly from [lo, hi].
func uniformIters(rng *rand.Rand, n int, lo, hi uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = lo + uint32(rng.IntN(int(hi-lo)+1))
	}
	return out
}

// arrival is one request of an open-loop schedule.
type arrival struct {
	due int64 // ns after the phase starts
	x   uint32
}

// poissonSchedule draws the arrivals of one phase: exponential gaps at
// rate per second, for dur nanoseconds, each with a random argument.
func poissonSchedule(rng *rand.Rand, rate float64, dur int64) []arrival {
	out := make([]arrival, 0, int(rate*float64(dur)/1e9*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(dur) || math.IsInf(t, 0) {
			return out
		}
		out = append(out, arrival{due: int64(t), x: rng.Uint32()})
	}
}
