package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

const (
	// warmup is a closed-loop burst before a server's measured phases,
	// so connections, pools and the decode scheduler are live.
	warmup = 500 * time.Millisecond
	// ringSlack is the trace-ring room kept beyond the measured requests
	// for the warm-up's traces.
	ringSlack = 4096
)

// serveWorkload is one serving traffic mix.
type serveWorkload struct {
	periods int
	// lightRPS and heavyRPS are the fixed open-loop rates (see
	// workloads); they are never re-derived per run.
	lightRPS, heavyRPS float64
	// lightShare, heavyShare and closedShare split --seconds between the
	// three phases.
	lightShare, heavyShare, closedShare float64
	// oracle is how many requests per phase are checked byte for byte.
	oracle int
}

// setupServer trains the served model, writes it and starts a server on
// it, returning the time all of that took until /readyz answered 200.
func setupServer(e *env, traceBuffer int) (servedModel, *tracedProc, time.Duration, error) {
	start := time.Now()
	sm, blob, err := trainServed()
	if err != nil {
		return sm, nil, 0, err
	}
	if err := os.WriteFile(e.modelPath(), blob, 0o644); err != nil {
		return sm, nil, 0, err
	}
	p, err := e.start(traceBuffer)
	if err != nil {
		return sm, nil, 0, err
	}
	return sm, p, time.Since(start), nil
}

func (e *env) modelPath() string { return filepath.Join(e.workdir, "model.bin") }

// start starts a server on the model file last written.
func (e *env) start(traceBuffer int) (*tracedProc, error) {
	e.servers++
	return startTraced(e.traced, e.modelPath(), filepath.Join(e.workdir, fmt.Sprintf("traced-%d.log", e.servers)), traceBuffer)
}

// phaseResult is one measured phase.
type phaseResult struct {
	name    string
	rate    float64 // offered rate; 0 for the closed loop
	results []result
	lateMax time.Duration
	elapsed time.Duration
}

func (ph phaseResult) failed() int {
	n := 0
	for _, r := range ph.results {
		if !r.ok() {
			n++
		}
	}
	return n
}

// latenciesMS returns the sorted latencies in ms; a failed request
// counts as infinitely late.
func (ph phaseResult) latenciesMS() []float64 {
	out := make([]float64, len(ph.results))
	for i, r := range ph.results {
		out[i] = math.Inf(1)
		if r.ok() {
			out[i] = ms(r.latency())
		}
	}
	sort.Float64s(out)
	return out
}

// rounds is how many times an untraced run sets a server up and runs
// the light, heavy and closed phases and the Monte-Carlo batch. Rounds
// spread every measurement over the whole run, so a stretch of host
// contention lands on all of them alike instead of on whichever one
// happened to run then.
const rounds = 3

// schedules derives every input of a serve run from the workload seed:
// the light and heavy open-loop schedules of each round, one
// closed-loop request stream per connection, and the oracle samples.
// The heavy schedule is the same in untraced and traced runs of one
// seed.
type schedules struct {
	light, heavy         [][]request
	lightKeep, heavyKeep []map[int]bool
	closed               []*rng.RNG
	closedKeep           int
	closedDur            time.Duration
	periods, historyEnd  int
	warm                 *rng.RNG
}

func newSchedules(wl serveWorkload, seed int64, seconds float64, conns, historyEnd int) *schedules {
	master := rng.New(seed)
	chunk := func(share float64) time.Duration {
		return time.Duration(share * seconds / rounds * float64(time.Second))
	}
	minN := (minOpenRequests + rounds - 1) / rounds
	perChunk := (wl.oracle + rounds - 1) / rounds
	s := &schedules{
		periods: wl.periods, historyEnd: historyEnd,
		closedDur:  chunk(wl.closedShare),
		closedKeep: (wl.oracle + conns - 1) / conns,
	}
	lg, hg, og := master.Split(), master.Split(), master.Split()
	for k := 0; k < rounds; k++ {
		light := openSchedule(lg, wl.lightRPS, chunk(wl.lightShare), minN, wl.periods, historyEnd)
		heavy := openSchedule(hg, wl.heavyRPS, chunk(wl.heavyShare), minN, wl.periods, historyEnd)
		s.light = append(s.light, light)
		s.heavy = append(s.heavy, heavy)
		s.lightKeep = append(s.lightKeep, keepSet(oracleSample(og, len(light), perChunk)))
		s.heavyKeep = append(s.heavyKeep, keepSet(oracleSample(og, len(heavy), perChunk)))
	}
	for i := 0; i < conns; i++ {
		s.closed = append(s.closed, master.Split())
	}
	s.warm = master.Split()
	return s
}

func keepSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// add pools another round of the same phase into ph.
func (ph *phaseResult) add(seg phaseResult) {
	ph.name, ph.rate = seg.name, seg.rate
	ph.results = append(ph.results, seg.results...)
	ph.lateMax = max(ph.lateMax, seg.lateMax)
	ph.elapsed += seg.elapsed
}

// runOpen replays an open-loop schedule.
func runOpen(lg *loadgen, name string, rate float64, reqs []request, keep map[int]bool) phaseResult {
	res, late := lg.open(reqs, keep)
	return phaseResult{name: name, rate: rate, results: res, lateMax: late}
}

// runClosed runs the closed loop for dur; worker w sends the next
// requests of streams[w] and keeps the bodies of its first keepN.
func runClosed(lg *loadgen, name string, dur time.Duration, s *schedules, streams []*rng.RNG, keepN int) phaseResult {
	res, elapsed := lg.closed(dur, func(w, i int) (request, bool) {
		return newRequest(streams[w], s.periods, s.historyEnd), i < keepN
	})
	return phaseResult{name: name, results: res, elapsed: elapsed}
}

// warmUp sends closed-loop traffic for the warm-up time; its requests
// are checked but not measured.
func warmUp(lg *loadgen, s *schedules) phaseResult {
	streams := make([]*rng.RNG, lg.conns)
	for i := range streams {
		streams[i] = s.warm.Split()
	}
	return runClosed(lg, "warmup", warmup, s, streams, 0)
}

// closedChunks is how many separately timed closed-loop chunks a round
// runs, one before and one after its open-loop phases.
const closedChunks = 2

// runRound runs round k's phases: a closed-loop chunk, light, heavy and
// another closed-loop chunk in an untraced run, heavy alone when light
// and closed are nil. It returns each closed-loop chunk's completions
// per second. Only the first chunk of the first round keeps bodies for
// the oracle.
func runRound(lg *loadgen, s *schedules, wl serveWorkload, k int, light, heavy, closed *phaseResult) []float64 {
	var capacity []float64
	closedChunk := func(c int) {
		if closed == nil {
			return
		}
		keep := 0
		if k == 0 && c == 0 {
			keep = s.closedKeep
		}
		rc := runClosed(lg, "closed", s.closedDur/closedChunks, s, s.closed, keep)
		capacity = append(capacity, float64(len(rc.results)-rc.failed())/rc.elapsed.Seconds())
		closed.add(rc)
	}
	closedChunk(0)
	if light != nil {
		light.add(runOpen(lg, "light", wl.lightRPS, s.light[k], s.lightKeep[k]))
	}
	heavy.add(runOpen(lg, heavy.name, wl.heavyRPS, s.heavy[k], s.heavyKeep[k]))
	closedChunk(1)
	return capacity
}

// oracleOut is what the oracle check found, with the serial decode
// times and traces it produced.
type oracleOut struct {
	checked, mismatches int
	generate            []float64 // ms per serial Generate
	traces              []*trace.Trace
}

// oracleCheck compares every kept body with the serial decode of the
// same request on the in-memory served model.
func oracleCheck(sm servedModel, phases ...phaseResult) (oracleOut, error) {
	var out oracleOut
	for _, ph := range phases {
		for _, r := range ph.results {
			if r.Body == nil {
				continue
			}
			start := time.Now()
			tr := core.WithCatalog(sm.model.Generate(rng.New(r.Req.Seed), r.Req.window()), sm.catalog)
			out.generate = append(out.generate, ms(time.Since(start)))
			want, err := csvBytes(tr)
			if err != nil {
				return out, err
			}
			out.checked++
			out.traces = append(out.traces, tr)
			if !bytes.Equal(want, r.Body) {
				out.mismatches++
			}
		}
	}
	return out, nil
}

// spanSum sums the durations of a trace's spans with the given name (a
// request replayed after a hot reload has several queue spans).
func spanSum(f rtrace.Finished, name string) (time.Duration, int64) {
	var d time.Duration
	var steps int64
	for _, s := range f.Spans {
		if s.Name == name {
			d += time.Duration(s.DurNS)
			steps += s.Steps
		}
	}
	return d, steps
}

// interval is an absolute time span.
type interval struct{ lo, hi time.Time }

// meanOverlap is the total length of the intervals over the length of
// their union: the mean number of them active while any is.
func meanOverlap(iv []interval) float64 {
	if len(iv) == 0 {
		return math.NaN()
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo.Before(iv[j].lo) })
	var total, union time.Duration
	cur := iv[0]
	for _, x := range iv {
		total += x.hi.Sub(x.lo)
		if x.lo.After(cur.hi) {
			union += cur.hi.Sub(cur.lo)
			cur = x
		} else if x.hi.After(cur.hi) {
			cur.hi = x.hi
		}
	}
	union += cur.hi.Sub(cur.lo)
	if union <= 0 {
		return math.NaN()
	}
	return float64(total) / float64(union)
}
