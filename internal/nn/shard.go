// Minibatch sharding: the deterministic data-parallel training driver.
//
// A minibatch of B independent sequences is split into fixed row-shards
// (ShardRows rows each — a constant, never a function of the worker
// count). Each shard runs Forward/Backward on a shadow of the network
// that shares the weight tensors but owns private gradient buffers (and
// its own Workspace), so shards never race. When every shard has
// finished, the per-shard gradients and losses are reduced into the
// real network in ascending shard order. Because the shard layout and
// the reduction order are both fixed, every Adam update — and therefore
// every trained weight and every generated trace — is bit-identical for
// any REPRO_PROCS.
//
// All per-window bookkeeping (row-view headers for shard inputs and
// states, loss/count accumulators) is allocated once per trainer and
// rebound each window, keeping the steady-state sharded training loop
// allocation-free outside the networks' own workspaces.
package nn

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/par"
)

// ShardRows is the fixed row granularity of minibatch sharding. One row
// per shard maximizes available parallelism at the small batch sizes
// this repository trains with; determinism requires only that it never
// depend on the worker count.
const ShardRows = 1

// NumShards returns how many shards a batch of b rows splits into.
func NumShards(b int) int { return (b + ShardRows - 1) / ShardRows }

// shadowParam returns a Param sharing p's value tensor but owning a
// fresh gradient buffer. Shadow params carry no Adam moments: only the
// real network's params ever reach the optimizer.
func shadowParam(p *Param) *Param {
	return &Param{
		Name:  p.Name,
		Value: p.Value,
		Grad:  mat.NewDense(p.Grad.Rows, p.Grad.Cols),
	}
}

// ShadowGrads returns a network sharing n's weight tensors but with
// private gradient buffers, for race-free per-shard backward passes.
// The shadow acquires its own Workspace on first use.
func (n *LSTM) ShadowGrads() *LSTM {
	s := &LSTM{Cfg: n.Cfg}
	for _, l := range n.layers {
		sl := &lstmLayer{
			in: l.in, hidden: l.hidden, first: l.first,
			wx: shadowParam(l.wx), wh: shadowParam(l.wh), b: shadowParam(l.b),
		}
		s.layers = append(s.layers, sl)
		s.params = append(s.params, sl.wx, sl.wh, sl.b)
	}
	s.wy, s.by = shadowParam(n.wy), shadowParam(n.by)
	s.params = append(s.params, s.wy, s.by)
	return s
}

// ShadowGrads is the GRU counterpart of LSTM.ShadowGrads.
func (n *GRU) ShadowGrads() *GRU {
	s := &GRU{Cfg: n.Cfg}
	for _, l := range n.layers {
		sl := &gruLayer{
			in: l.in, hidden: l.hidden, first: l.first,
			wx: shadowParam(l.wx), wh: shadowParam(l.wh), b: shadowParam(l.b),
		}
		s.layers = append(s.layers, sl)
		s.params = append(s.params, sl.wx, sl.wh, sl.b)
	}
	s.wy, s.by = shadowParam(n.wy), shadowParam(n.by)
	s.params = append(s.params, s.wy, s.by)
	return s
}

// SliceRows returns a view of rows [lo, hi) of the state. The view
// aliases s's storage until Forward replaces the per-layer matrices.
func (s *State) SliceRows(lo, hi int) *State {
	out := &State{}
	for i := range s.H {
		out.H = append(out.H, s.H[i].SliceRows(lo, hi))
		out.C = append(out.C, s.C[i].SliceRows(lo, hi))
	}
	return out
}

// CopyRows copies the (hi-lo)-row state src into rows [lo, hi) of s.
func (s *State) CopyRows(lo, hi int, src *State) {
	for i := range s.H {
		c := s.H[i].Cols
		copy(s.H[i].Data[lo*c:hi*c], src.H[i].Data)
		c = s.C[i].Cols
		copy(s.C[i].Data[lo*c:hi*c], src.C[i].Data)
	}
}

// SliceRows returns a view of rows [lo, hi) of the GRU state.
func (s *GRUState) SliceRows(lo, hi int) *GRUState {
	out := &GRUState{}
	for i := range s.H {
		out.H = append(out.H, s.H[i].SliceRows(lo, hi))
	}
	return out
}

// CopyRows copies the (hi-lo)-row state src into rows [lo, hi) of s.
func (s *GRUState) CopyRows(lo, hi int, src *GRUState) {
	for i := range s.H {
		c := s.H[i].Cols
		copy(s.H[i].Data[lo*c:hi*c], src.H[i].Data)
	}
}

// ShardDys computes the loss gradient for shard rows [lo, hi) given the
// shard's per-step output logits. It returns the per-step gradients
// (nil to skip the backward pass, e.g. when the whole window carries no
// valid targets), the summed loss, and the contributing output count.
// It is called concurrently for different shards and must touch only
// row-[lo,hi) slices of caller state.
type ShardDys func(lo, hi int, ys []*mat.Dense) (dys []*mat.Dense, loss float64, count int)

// shardViews is one shard's reusable row-view bookkeeping: persistent
// matrix headers that are re-pointed at the current window's inputs and
// state rows, so the per-window fan-out performs no allocation. Each
// shard owns its views exclusively, preserving race freedom.
type shardViews struct {
	hv, cv []mat.Dense  // per-layer headers over the batch state's shard rows
	sH, sC []*mat.Dense // pointer slices backing the shard state
	sst    State        // shard state handed to Forward (GRU use leaves C empty)
	gst    GRUState
	xv     []mat.Dense  // per-step headers over the window inputs' shard rows
	xs     []*mat.Dense // pointer slice handed to Forward
}

// bindInputs re-points the shard's input views at rows [lo, hi) of xs.
func (sv *shardViews) bindInputs(xs []*mat.Dense, lo, hi int) []*mat.Dense {
	T := len(xs)
	if cap(sv.xv) < T {
		sv.xv = make([]mat.Dense, T)
		sv.xs = make([]*mat.Dense, T)
	}
	sv.xv, sv.xs = sv.xv[:T], sv.xs[:T]
	for i, x := range xs {
		c := x.Cols
		sv.xv[i].Rows, sv.xv[i].Cols = hi-lo, c
		sv.xv[i].Data = x.Data[lo*c : hi*c]
		sv.xs[i] = &sv.xv[i]
	}
	return sv.xs
}

// bindState re-points the shard's state views at rows [lo, hi) of st.
// Forward replaces the pointer entries with workspace views, so the
// headers themselves stay owned by the shard and are rebound next
// window.
func (sv *shardViews) bindState(st *State, lo, hi int) *State {
	nl := len(st.H)
	if cap(sv.hv) < nl {
		sv.hv = make([]mat.Dense, nl)
		sv.cv = make([]mat.Dense, nl)
		sv.sH = make([]*mat.Dense, nl)
		sv.sC = make([]*mat.Dense, nl)
	}
	sv.hv, sv.cv = sv.hv[:nl], sv.cv[:nl]
	sv.sH, sv.sC = sv.sH[:nl], sv.sC[:nl]
	for l := 0; l < nl; l++ {
		c := st.H[l].Cols
		sv.hv[l].Rows, sv.hv[l].Cols = hi-lo, c
		sv.hv[l].Data = st.H[l].Data[lo*c : hi*c]
		sv.cv[l].Rows, sv.cv[l].Cols = hi-lo, c
		sv.cv[l].Data = st.C[l].Data[lo*c : hi*c]
		sv.sH[l], sv.sC[l] = &sv.hv[l], &sv.cv[l]
	}
	sv.sst.H, sv.sst.C = sv.sH, sv.sC
	return &sv.sst
}

// bindGRUState is the GRU counterpart of bindState.
func (sv *shardViews) bindGRUState(st *GRUState, lo, hi int) *GRUState {
	nl := len(st.H)
	if cap(sv.hv) < nl {
		sv.hv = make([]mat.Dense, nl)
		sv.sH = make([]*mat.Dense, nl)
	}
	sv.hv, sv.sH = sv.hv[:nl], sv.sH[:nl]
	for l := 0; l < nl; l++ {
		c := st.H[l].Cols
		sv.hv[l].Rows, sv.hv[l].Cols = hi-lo, c
		sv.hv[l].Data = st.H[l].Data[lo*c : hi*c]
		sv.sH[l] = &sv.hv[l]
	}
	sv.gst.H = sv.sH
	return &sv.gst
}

// ShardedLSTM drives sharded minibatch training of an LSTM. Shadows and
// shard scratch are allocated once and reused across windows and epochs.
type ShardedLSTM struct {
	Net     *LSTM
	shadows []*LSTM
	views   []*shardViews
	losses  []float64
	counts  []int

	// shard is the per-shard window body, built once so RunWindow hands
	// par.Do no fresh closure; it reads the running window's arguments
	// from win, which RunWindow sets and clears around the fan-out.
	shard func(si int)
	win   struct {
		xs  []*mat.Dense
		st  *State
		dys ShardDys
	}
}

// NewShardedLSTM prepares a sharded trainer for batches of up to
// maxBatch rows.
func NewShardedLSTM(net *LSTM, maxBatch int) *ShardedLSTM {
	s := &ShardedLSTM{Net: net}
	ns := NumShards(maxBatch)
	for i := 0; i < ns; i++ {
		s.shadows = append(s.shadows, net.ShadowGrads())
		s.views = append(s.views, &shardViews{})
	}
	s.losses = make([]float64, ns)
	s.counts = make([]int, ns)
	s.shard = s.runShard
	return s
}

// runShard runs shard si of the current window: forward over its
// row-sliced inputs from its row-sliced state, loss gradients, backward
// into the shard's private gradients, and its final state written back.
func (s *ShardedLSTM) runShard(si int) {
	xs, st := s.win.xs, s.win.st
	b := xs[0].Rows
	lo := si * ShardRows
	hi := min(lo+ShardRows, b)
	shadow := s.shadows[si]
	sv := s.views[si]
	shadow.ZeroGrads()
	sst := sv.bindState(st, lo, hi)
	ys, cache := shadow.Forward(sv.bindInputs(xs, lo, hi), sst)
	d, l, n := s.win.dys(lo, hi, ys)
	if d != nil {
		shadow.Backward(cache, d)
	}
	st.CopyRows(lo, hi, sst)
	s.losses[si], s.counts[si] = l, n
}

// RunWindow runs one truncated-BPTT window: per shard, forward over the
// row-sliced inputs from the row-sliced state, loss gradients via dys,
// backward into the shard's private gradients, and the shard's final
// state written back into st. Gradients are then reduced into Net's
// params (zeroed first) in ascending shard order; losses and counts
// reduce in the same order. st is advanced in place exactly as a
// full-batch Forward would.
func (s *ShardedLSTM) RunWindow(xs []*mat.Dense, st *State, dys ShardDys) (loss float64, count int) {
	if len(xs) == 0 {
		return 0, 0
	}
	b := xs[0].Rows
	ns := NumShards(b)
	if ns > len(s.shadows) {
		panic(fmt.Sprintf("nn: RunWindow batch %d exceeds prepared shards %d", b, len(s.shadows)))
	}
	s.win.xs, s.win.st, s.win.dys = xs, st, dys
	par.Do(ns, s.shard)
	s.win.xs, s.win.st, s.win.dys = nil, nil, nil
	s.Net.ZeroGrads()
	reduceGrads(s.Net.params, ns, func(i int) []*Param { return s.shadows[i].params })
	for si := 0; si < ns; si++ {
		loss += s.losses[si]
		count += s.counts[si]
	}
	return loss, count
}

// ShardedGRU drives sharded minibatch training of a GRU.
type ShardedGRU struct {
	Net     *GRU
	shadows []*GRU
	views   []*shardViews
	losses  []float64
	counts  []int
}

// NewShardedGRU prepares a sharded trainer for batches of up to
// maxBatch rows.
func NewShardedGRU(net *GRU, maxBatch int) *ShardedGRU {
	s := &ShardedGRU{Net: net}
	ns := NumShards(maxBatch)
	for i := 0; i < ns; i++ {
		s.shadows = append(s.shadows, net.ShadowGrads())
		s.views = append(s.views, &shardViews{})
	}
	s.losses = make([]float64, ns)
	s.counts = make([]int, ns)
	return s
}

// RunWindow is the GRU counterpart of ShardedLSTM.RunWindow.
func (s *ShardedGRU) RunWindow(xs []*mat.Dense, st *GRUState, dys ShardDys) (loss float64, count int) {
	if len(xs) == 0 {
		return 0, 0
	}
	b := xs[0].Rows
	ns := NumShards(b)
	if ns > len(s.shadows) {
		panic(fmt.Sprintf("nn: RunWindow batch %d exceeds prepared shards %d", b, len(s.shadows)))
	}
	par.Do(ns, func(si int) {
		lo := si * ShardRows
		hi := lo + ShardRows
		if hi > b {
			hi = b
		}
		shadow := s.shadows[si]
		sv := s.views[si]
		shadow.ZeroGrads()
		sst := sv.bindGRUState(st, lo, hi)
		ys, cache := shadow.Forward(sv.bindInputs(xs, lo, hi), sst)
		d, l, n := dys(lo, hi, ys)
		if d != nil {
			shadow.Backward(cache, d)
		}
		st.CopyRows(lo, hi, sst)
		s.losses[si], s.counts[si] = l, n
	})
	s.Net.ZeroGrads()
	reduceGrads(s.Net.params, ns, func(i int) []*Param { return s.shadows[i].params })
	for si := 0; si < ns; si++ {
		loss += s.losses[si]
		count += s.counts[si]
	}
	return loss, count
}

// reduceGrads accumulates shard gradients into dst in ascending shard
// order — the fixed-order merge half of the determinism contract.
func reduceGrads(dst []*Param, ns int, shard func(i int) []*Param) {
	for si := 0; si < ns; si++ {
		src := shard(si)
		for pi, p := range dst {
			mat.Axpy(1, src[pi].Grad.Data, p.Grad.Data)
		}
	}
}
