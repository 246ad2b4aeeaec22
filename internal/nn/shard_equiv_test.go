package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// TestShardedMatchesDirect pins the sharded window driver to the direct
// Forward/Backward path: final states must match exactly (forward math
// is per-row), and gradients to a tight relative tolerance. Gradients
// cannot match bit for bit: the direct path accumulates weight
// gradients row-interleaved per time step, while shards sum each row's
// full time series before the fixed-order reduction — a pure
// regrouping of the same terms. Cross-worker-count bit-identity is
// covered by the root determinism test instead. It runs serially and
// with four workers: with workers the shards step concurrently, each
// repacking its recurrent weight panels into its own workspace, which
// scripts/check.sh races under GOMAXPROCS=4.
func TestShardedMatchesDirect(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			par.SetProcs(procs)
			testShardedMatchesDirect(t)
		})
	}
}

func testShardedMatchesDirect(t *testing.T) {
	const inDim, hidden, outDim, steps, batch = 7, 6, 5, 4, 3
	mk := func() *LSTM {
		return NewLSTM(Config{InputDim: inDim, HiddenDim: hidden, Layers: 2, OutputDim: outDim}, rng.New(1))
	}
	g := rng.New(2)
	xs := make([]*mat.Dense, steps)
	targets := make([][]int, steps)
	for s := range xs {
		x := mat.NewDense(batch, inDim)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[s] = x
		tg := make([]int, batch)
		for i := range tg {
			tg[i] = g.Intn(outDim)
		}
		targets[s] = tg
	}

	direct := mk()
	stD := direct.NewState(batch)
	direct.ZeroGrads()
	ys, cache := direct.Forward(xs, stD)
	dys := make([]*mat.Dense, steps)
	for s, y := range ys {
		_, d, _ := SoftmaxCE(y, targets[s], nil)
		dys[s] = d
	}
	direct.Backward(cache, dys)

	sharded := mk()
	stS := sharded.NewState(batch)
	drv := NewShardedLSTM(sharded, batch)
	drv.RunWindow(xs, stS, func(lo, hi int, sys []*mat.Dense) ([]*mat.Dense, float64, int) {
		sdys := make([]*mat.Dense, len(sys))
		for s, y := range sys {
			_, d, _ := SoftmaxCE(y, targets[s][lo:hi], nil)
			sdys[s] = d
		}
		return sdys, 0, 0
	})

	dp, sp := direct.Params(), sharded.Params()
	if len(dp) != len(sp) {
		t.Fatalf("param count %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		for j := range dp[i].Grad.Data {
			dv, sv := dp[i].Grad.Data[j], sp[i].Grad.Data[j]
			if diff := math.Abs(dv - sv); diff > 1e-12*(1+math.Abs(dv)) {
				t.Fatalf("param %d grad[%d]: direct %v sharded %v", i, j, dv, sv)
			}
		}
	}
	for l := range stD.H {
		for j := range stD.H[l].Data {
			if stD.H[l].Data[j] != stS.H[l].Data[j] {
				t.Fatalf("state H[%d][%d]: direct %v sharded %v", l, j, stD.H[l].Data[j], stS.H[l].Data[j])
			}
		}
		for j := range stD.C[l].Data {
			if stD.C[l].Data[j] != stS.C[l].Data[j] {
				t.Fatalf("state C[%d][%d]: direct %v sharded %v", l, j, stD.C[l].Data[j], stS.C[l].Data[j])
			}
		}
	}
}
