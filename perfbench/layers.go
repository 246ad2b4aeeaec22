package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/fidelity"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// Kernel replays time a layer's public functions from outside the
// program, at the shapes the served model and the measured runs use.

const (
	// replayRound is the least time one timed round of a replay lasts;
	// replayRounds rounds are taken and their median per-call time kept.
	replayRound  = 40 * time.Millisecond
	replayRounds = 5
)

// perCall times op and returns its median per-call time in
// nanoseconds.
func perCall(op func()) float64 {
	op() // lazy set-up and caches
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(start) >= replayRound/4 {
			break
		}
		n *= 2
	}
	// n calls take at least a quarter round; scale to a full round.
	n *= 4
	rounds := make([]float64, replayRounds)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
	}
	return median(rounds)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fleetInputs encodes one realistic layer-0 input per row: the sparse
// one-hot and temporal blocks the decode engine feeds the nets.
type fleetInputs func(g *rng.RNG, dst []float64)

func flavorInputs(m *core.Model, period int) fleetInputs {
	fm := m.Flavor
	return func(g *rng.RNG, dst []float64) {
		features.OneHot(dst[:fm.K+1], g.Intn(fm.K+1))
		fm.Temporal.Encode(dst[fm.K+1:], period, g.Intn(fm.HistoryDays))
	}
}

func lifetimeInputs(m *core.Model, period int) fleetInputs {
	lm := m.Lifetime
	return func(g *rng.RNG, dst []float64) {
		td := lm.Temporal.Dim()
		lm.Temporal.Encode(dst[:td], period, g.Intn(lm.HistoryDays))
		features.OneHot(dst[td:td+lm.K], g.Intn(lm.K))
		dst[td+lm.K] = math.Log1p(float64(1 + g.Intn(4)))
		lm.LifeFeat.Encode(dst[td+lm.K+1:], g.Intn(lm.Bins.J()), false)
	}
}

// fleetStep times one (*nn.Fleet).Step of rows streams on a packed
// serving fleet.
func fleetStep(net *nn.LSTM, packed *nn.PackedLSTM, rows int, in fleetInputs) float64 {
	f := net.NewFleetPacked(rows, packed)
	idx := make([]int, rows)
	g := rng.New(int64(rows))
	for i := range idx {
		idx[i] = f.Admit()
		in(g, f.InputRow(i))
	}
	return perCall(func() { f.Step(idx) })
}

// gemmShape is the flavor net's recurrent gate GEMM: [rows x H] times
// the packed [H x 4H] panel, accumulated into [rows x 4H].
type gemmShape struct{ rows, h int }

// flops is computed from the shape: one multiply and one add per term.
func (s gemmShape) flops() float64 { return 2 * float64(s.rows*s.h*4*s.h) }

// bytes is computed from the shape: A and the panel read once, the
// destination read and written once, 8 bytes per element.
func (s gemmShape) bytes() float64 {
	return 8 * float64(s.rows*s.h+s.h*4*s.h+2*s.rows*4*s.h)
}

func gateGEMM(s gemmShape) float64 {
	g := rng.New(int64(s.rows))
	fill := func(d *mat.Dense) *mat.Dense {
		for i := range d.Data {
			d.Data[i] = g.Uniform(-1, 1)
		}
		return d
	}
	a := fill(mat.NewDense(s.rows, s.h))
	b := fill(mat.NewDense(s.h, 4*s.h)).Pack()
	dst := mat.NewDense(s.rows, 4*s.h)
	return perCall(func() { mat.MulAddPacked(dst, a, b) })
}

// vecKernel times f over n inputs drawn like pre-activations.
func vecKernel(n int, f func(x, out []float64)) float64 {
	g := rng.New(int64(n))
	x := make([]float64, n)
	for i := range x {
		x[i] = g.Uniform(-6, 6)
	}
	out := make([]float64, n)
	return perCall(func() { f(x, out) })
}

// observeReplay times (*fidelity.Monitor).ObserveTrace over traces
// against the reference cmd/traced captures for a loaded model.
func observeReplay(m *core.Model, traces []*trace.Trace) float64 {
	start := m.Flavor.HistoryDays * trace.PeriodsPerDay
	w := trace.Window{Start: start, End: start + 2*trace.PeriodsPerDay}
	ref := fidelity.ReferenceFromTrace(m.Generate(rng.New(0x5EED), w), survival.PaperBins().Edges)
	mon := fidelity.NewMonitor(ref, fidelity.Config{}, obs.NewRegistry())
	i := 0
	return perCall(func() {
		mon.ObserveTrace(traces[i%len(traces)], 1)
		i++
	})
}

// minibatch is one BPTT training step of the flavor net at a
// TrainConfig's shape, replayed on a fresh network of the same size;
// times are in nanoseconds.
type minibatch struct {
	forward, backward, adam float64
}

func minibatchReplay(cfg nn.Config, seqLen, batch int, lr float64, in fleetInputs) minibatch {
	g := rng.New(7)
	net := nn.NewLSTM(cfg, g)
	xs := make([]*mat.Dense, seqLen)
	dys := make([]*mat.Dense, seqLen)
	for s := range xs {
		xs[s] = mat.NewDense(batch, cfg.InputDim)
		dys[s] = mat.NewDense(batch, cfg.OutputDim)
		for r := 0; r < batch; r++ {
			in(g, xs[s].Row(r))
			for j := range dys[s].Row(r) {
				dys[s].Row(r)[j] = g.Uniform(-1, 1) / float64(batch*seqLen)
			}
		}
	}
	opt := nn.NewAdam(lr)
	opt.ClipNorm = 5
	var mb minibatch
	mb.forward = perCall(func() { net.Forward(xs, nil) })
	// Backward consumes the scratch of the Forward before it, so it is
	// timed as a pair and the forward time subtracted.
	pair := perCall(func() {
		_, cache := net.Forward(xs, nil)
		net.ZeroGrads()
		net.Backward(cache, dys)
	})
	mb.backward = pair - mb.forward
	mb.adam = perCall(func() { opt.Step(net.Params()) })
	return mb
}

// trainWindows is the number of minibatches (Adam steps) per epoch of a
// training loop over total steps, as core's segment plan splits them:
// BatchSize contiguous segments cut into SeqLen-step windows.
func trainWindows(total, seqLen, batch int) int {
	batch = min(batch, total)
	segLen := (total + batch - 1) / batch
	return (segLen + seqLen - 1) / seqLen
}

func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	return nil
}
