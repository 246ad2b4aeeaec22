package nn

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// snapshotGrads deep-copies every parameter gradient.
func snapshotGrads(params []*Param) []*mat.Dense {
	out := make([]*mat.Dense, len(params))
	for i, p := range params {
		out[i] = p.Grad.Clone()
	}
	return out
}

// runLSTMPass runs one ZeroGrads/Forward/Backward cycle and returns
// deep copies of the outputs and gradients.
func runLSTMPass(n *LSTM, xs []*mat.Dense, dys []*mat.Dense) ([]*mat.Dense, []*mat.Dense) {
	n.ZeroGrads()
	ys, cache := n.Forward(xs, nil)
	out := cloneAll(ys)
	n.Backward(cache, dys)
	return out, snapshotGrads(n.Params())
}

// TestWorkspaceWarmColdBitIdentical is the workspace-equivalence test:
// the first Forward/Backward on a fresh network runs on cold (newly
// grown) arenas, while later passes reuse warm buffers full of stale
// values. Reuse must be invisible — outputs and gradients bit-identical
// across repeated passes, including after interleaving a differently
// shaped pass that forces the arenas to re-slice their slabs.
func TestWorkspaceWarmColdBitIdentical(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(31))
	g := rng.New(32)
	const steps, batch = 5, 3
	xs := randInputs(g, steps, batch, 3)
	dys := make([]*mat.Dense, steps)
	for s := range dys {
		d := mat.NewDense(batch, 4)
		for i := range d.Data {
			d.Data[i] = g.NormFloat64()
		}
		dys[s] = d
	}
	coldYs, coldGrads := runLSTMPass(n, xs, dys)
	for pass := 0; pass < 3; pass++ {
		ys, grads := runLSTMPass(n, xs, dys)
		for s := range ys {
			for i := range ys[s].Data {
				if ys[s].Data[i] != coldYs[s].Data[i] {
					t.Fatalf("pass %d: output step %d differs from cold pass", pass, s)
				}
			}
		}
		for pi := range grads {
			for i := range grads[pi].Data {
				if grads[pi].Data[i] != coldGrads[pi].Data[i] {
					t.Fatalf("pass %d: grad %s differs from cold pass", pass, n.Params()[pi].Name)
				}
			}
		}
		// Force every slab to resize before the next pass so reuse has
		// to handle shape changes, not just identical replays.
		other := randInputs(g, steps+2, batch+1, 3)
		n.Forward(other, nil)
		n.Forward(other, nil)
	}
}

// TestWorkspaceFreeList verifies ReleaseWorkspace returns the buffers
// to the shared pool: a released workspace is handed to the next
// network that asks, and a network re-acquires one lazily after
// release without changing results.
func TestWorkspaceFreeList(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(33))
	xs := randInputs(rng.New(34), 4, 2, 3)
	before, _ := n.Forward(xs, nil)
	want := cloneAll(before)
	ws := n.ws
	if ws == nil {
		t.Fatal("Forward did not acquire a workspace")
	}
	n.ReleaseWorkspace()
	if n.ws != nil {
		t.Fatal("ReleaseWorkspace left the workspace attached")
	}
	m := tinyGRU(35)
	m.Forward(randInputs(rng.New(36), 3, 2, 3), nil)
	if m.ws != ws {
		t.Fatal("released workspace was not reused from the free list")
	}
	after, _ := n.Forward(xs, nil)
	for s := range after {
		for i := range after[s].Data {
			if after[s].Data[i] != want[s].Data[i] {
				t.Fatal("re-acquired workspace changed outputs")
			}
		}
	}
	m.ReleaseWorkspace()
	n.ReleaseWorkspace()
}

// TestStepForwardAllocFree pins the streaming decode path: after the
// lazily sized scratch exists, StepForward must not allocate at all.
func TestStepForwardAllocFree(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(37))
	st := n.NewState(1)
	x := []float64{0.1, -0.2, 0.3}
	n.StepForward(x, st) // size the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		n.StepForward(x, st)
	}); allocs != 0 {
		t.Fatalf("LSTM StepForward allocates %v times per step, want 0", allocs)
	}
	gn := tinyGRU(38)
	gst := gn.NewState(1)
	gn.StepForward(x, gst)
	if allocs := testing.AllocsPerRun(100, func() {
		gn.StepForward(x, gst)
	}); allocs != 0 {
		t.Fatalf("GRU StepForward allocates %v times per step, want 0", allocs)
	}
}

// TestForwardBackwardSteadyStateAllocs pins the training hot path: once
// both arenas of the double-buffered workspace are grown, a full
// Forward/Backward cycle performs no allocation at all. (The problem is
// sized below the kernels' parallel threshold; above it, par.For's
// fork/join bookkeeping allocates a bounded amount per call.)
func TestForwardBackwardSteadyStateAllocs(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(39))
	g := rng.New(40)
	const steps, batch = 6, 4
	xs := randInputs(g, steps, batch, 3)
	dys := make([]*mat.Dense, steps)
	for s := range dys {
		dys[s] = mat.NewDense(batch, 4)
	}
	pass := func() {
		_, cache := n.Forward(xs, nil)
		n.Backward(cache, dys)
	}
	pass()
	pass() // warm both arenas
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("steady-state Forward/Backward allocates %v times, want 0", allocs)
	}
}

// TestShardedRunWindowSteadyStateAllocs pins the sharded training
// window: once every shadow's workspace arenas and recurrent weight
// panels are grown, a full RunWindow (per-shard Forward with the wh
// panels, loss callback, Backward with the whᵀ panels, fixed-order
// gradient reduction) performs no allocation. Run serially: with
// workers, par.Do's goroutine fan-out allocates a bounded amount per
// window by design.
func TestShardedRunWindowSteadyStateAllocs(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	const inDim, hidden, outDim, steps, batch = 3, 24, 4, 6, 3
	n := NewLSTM(Config{InputDim: inDim, HiddenDim: hidden, Layers: 2, OutputDim: outDim}, rng.New(41))
	xs := randInputs(rng.New(42), steps, batch, inDim)
	st := n.NewState(batch)
	drv := NewShardedLSTM(n, batch)
	shardDys := make([][]*mat.Dense, batch)
	for r := range shardDys {
		for s := 0; s < steps; s++ {
			shardDys[r] = append(shardDys[r], mat.NewDense(1, outDim))
		}
	}
	dys := func(lo, hi int, ys []*mat.Dense) ([]*mat.Dense, float64, int) {
		d := shardDys[lo]
		for s, y := range ys {
			copy(d[s].Data, y.Data) // any gradient will do; shape is what matters
		}
		return d, 1, hi - lo
	}
	window := func() { drv.RunWindow(xs, st, dys) }
	window()
	window() // warm both arenas of every shadow
	if allocs := testing.AllocsPerRun(20, window); allocs != 0 {
		t.Fatalf("steady-state sharded RunWindow allocates %v times, want 0", allocs)
	}
}
