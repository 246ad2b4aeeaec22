package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
)

// request is one POST /generate the load generator sends. Everything
// the server receives is fixed here, before any clock starts: the
// window and the sampling seed; due is the request's send time relative
// to the start of its phase (zero in a closed loop).
type request struct {
	Due     time.Duration
	Periods int
	Start   int
	Seed    int64
	Body    []byte
}

// window is the absolute period window the request asks for.
func (r request) window() trace.Window {
	return trace.Window{Start: r.Start, End: r.Start + r.Periods}
}

// startSpread is the range of window starts: the day after the end of
// the served model's history, so short requests cover every hour of the
// day while day-long ones all cover one full day.
const startSpread = trace.PeriodsPerDay

// minOpenRequests keeps every open-loop phase large enough for the p90
// tail to have minBeyond samples beyond it.
const minOpenRequests = 100

// newRequest draws one request's window start and seed.
func newRequest(g *rng.RNG, periods, historyEnd int) request {
	r := request{
		Periods: periods,
		Start:   historyEnd + g.Intn(startSpread),
		// Seed 0 asks the server for a fresh seed, so it is never sent.
		Seed: g.Int63() | 1,
	}
	body, err := json.Marshal(map[string]any{
		"periods": r.Periods, "start_period": r.Start, "seed": r.Seed, "format": "csv",
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err))
	}
	r.Body = body
	return r
}

// openSchedule is an open-loop Poisson schedule at rate requests per
// second lasting about dur. The request count is fixed first
// (rate*dur, at least minN) and the arrival times are that many uniform
// points on [0, count/rate): a Poisson process conditioned on its
// count, so every seed offers exactly the same mean rate.
func openSchedule(g *rng.RNG, rate float64, dur time.Duration, minN, periods, historyEnd int) []request {
	n := max(minN, int(math.Round(rate*dur.Seconds())))
	span := float64(n) / rate
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = g.Float64() * span
	}
	sort.Float64s(dues)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = newRequest(g, periods, historyEnd)
		reqs[i].Due = time.Duration(dues[i] * float64(time.Second))
	}
	return reqs
}

// oracleSample picks k distinct request indices out of n, ascending.
func oracleSample(g *rng.RNG, n, k int) []int {
	idx := g.Perm(n)[:min(k, n)]
	sort.Ints(idx)
	return idx
}
