// Package nn is a from-scratch neural-network substrate standing in for
// the PyTorch stack the paper trained with. It provides multi-layer LSTM
// networks with full backpropagation-through-time, a linear output head,
// softmax cross-entropy and masked binary-cross-entropy-with-logits
// losses (the two heads the paper's flavor and lifetime models use), and
// an Adam optimizer with decoupled weight decay. All math is float64 on
// the stdlib only; gradients are verified against numerical
// differentiation in the package tests.
//
// Forward/Backward scratch comes from a per-network Workspace (see
// workspace.go), so the steady-state training hot path is
// allocation-free. Forward and Backward are therefore not reentrant on
// one network; StepForward keeps its scratch on the State and stays
// safe to call concurrently with distinct states.
package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Param is one learnable tensor together with its gradient accumulator
// and Adam moment estimates.
type Param struct {
	Name  string
	Value *mat.Dense
	Grad  *mat.Dense
	m, v  *mat.Dense // Adam first/second moment estimates
}

func newParam(name string, r, c int) *Param {
	return &Param{
		Name:  name,
		Value: mat.NewDense(r, c),
		Grad:  mat.NewDense(r, c),
		m:     mat.NewDense(r, c),
		v:     mat.NewDense(r, c),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Config describes an LSTM network: stacked LSTM layers followed by a
// linear head producing OutputDim scores per step.
type Config struct {
	InputDim  int
	HiddenDim int
	Layers    int
	OutputDim int
}

func (c Config) validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.Layers <= 0 || c.OutputDim <= 0 {
		return fmt.Errorf("nn: invalid config %+v", c)
	}
	return nil
}

// lstmLayer holds the parameters of one LSTM layer. Gate order within
// the 4H dimension is input, forget, cell (g), output.
type lstmLayer struct {
	in, hidden int
	first      bool   // layer 0: input may be a sparse feature encoding
	wx         *Param // [in x 4H]
	wh         *Param // [H x 4H]
	b          *Param // [1 x 4H]
}

// LSTM is a stacked LSTM network with a linear output head.
type LSTM struct {
	Cfg    Config
	layers []*lstmLayer
	wy     *Param // [H x OutputDim]
	by     *Param // [1 x OutputDim]
	params []*Param
	ws     *Workspace // Forward/Backward scratch arenas, lazily acquired
}

// NewLSTM constructs a network with Xavier-uniform weights (forget-gate
// biases initialized to +1, the standard trick for gradient flow).
func NewLSTM(cfg Config, g *rng.RNG) *LSTM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := &LSTM{Cfg: cfg}
	in := cfg.InputDim
	for l := 0; l < cfg.Layers; l++ {
		layer := &lstmLayer{
			in:     in,
			hidden: cfg.HiddenDim,
			first:  l == 0,
			wx:     newParam(fmt.Sprintf("l%d.wx", l), in, 4*cfg.HiddenDim),
			wh:     newParam(fmt.Sprintf("l%d.wh", l), cfg.HiddenDim, 4*cfg.HiddenDim),
			b:      newParam(fmt.Sprintf("l%d.b", l), 1, 4*cfg.HiddenDim),
		}
		xavierInit(layer.wx.Value, in, cfg.HiddenDim, g)
		xavierInit(layer.wh.Value, cfg.HiddenDim, cfg.HiddenDim, g)
		for j := cfg.HiddenDim; j < 2*cfg.HiddenDim; j++ {
			layer.b.Value.Set(0, j, 1) // forget gate bias
		}
		n.layers = append(n.layers, layer)
		n.params = append(n.params, layer.wx, layer.wh, layer.b)
		in = cfg.HiddenDim
	}
	n.wy = newParam("head.wy", cfg.HiddenDim, cfg.OutputDim)
	n.by = newParam("head.by", 1, cfg.OutputDim)
	xavierInit(n.wy.Value, cfg.HiddenDim, cfg.OutputDim, g)
	n.params = append(n.params, n.wy, n.by)
	return n
}

func xavierInit(w *mat.Dense, fanIn, fanOut int, g *rng.RNG) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w.Data {
		w.Data[i] = g.Uniform(-bound, bound)
	}
}

// Params returns all learnable parameters (for the optimizer and tests).
func (n *LSTM) Params() []*Param { return n.params }

// NumParams returns the total number of scalar parameters.
func (n *LSTM) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += len(p.Value.Data)
	}
	return total
}

// ZeroGrads clears all parameter gradients.
func (n *LSTM) ZeroGrads() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// State holds per-layer hidden and cell activations for a batch, used
// both to carry state across Forward calls and for stepwise generation.
// After a Forward call the H/C entries are views into the network's
// workspace, valid until the next-but-one Forward on that network
// (Clone them to keep longer). StepForward updates H/C in place.
type State struct {
	H []*mat.Dense // per layer, [B x H]
	C []*mat.Dense // per layer, [B x H]

	// StepForward scratch, lazily sized. It lives on the state rather
	// than the network so concurrent generation with distinct states
	// stays race-free.
	z, y *mat.Dense
	xh   mat.Dense
}

// NewState returns a zero state for batch size b.
func (n *LSTM) NewState(b int) *State {
	s := &State{}
	for range n.layers {
		s.H = append(s.H, mat.NewDense(b, n.Cfg.HiddenDim))
		s.C = append(s.C, mat.NewDense(b, n.Cfg.HiddenDim))
	}
	return s
}

// Clone deep-copies the state (scratch buffers are not carried over).
func (s *State) Clone() *State {
	out := &State{}
	for i := range s.H {
		out.H = append(out.H, s.H[i].Clone())
		out.C = append(out.C, s.C[i].Clone())
	}
	return out
}

// Zero clears the state in place.
func (s *State) Zero() {
	for i := range s.H {
		s.H[i].Zero()
		s.C[i].Zero()
	}
}

// Cache stores everything Forward computed that Backward consumes. All
// matrices are slabs in (or views into) the arena of the Forward call
// that produced it, so a Cache is valid until the next-but-one Forward
// on the same network. Activations are stored sequence-fused: each slab
// holds T (or T+1) row-blocks of B rows, block t covering step t.
type Cache struct {
	steps int
	batch int
	ar    *arena

	x                 *mat.Dense   // packed layer-0 input [T·B x InputDim]
	h, c              []*mat.Dense // per layer [(T+1)·B x H]; block 0 is the initial state
	i, f, g, o, tanhC []*mat.Dense // per layer gate activations [T·B x H]
	ys                []*mat.Dense // per-step output views returned by Forward
}

// T returns the number of time steps in the cached forward pass.
func (c *Cache) T() int { return c.steps }

// lstmCache returns the arena's embedded Cache, resized for nl layers.
func (a *arena) lstmCache(nl int) *Cache {
	c := &a.cache
	c.ar = a
	c.x = nil
	if cap(c.h) < nl {
		c.h = make([]*mat.Dense, nl)
		c.c = make([]*mat.Dense, nl)
		c.i = make([]*mat.Dense, nl)
		c.f = make([]*mat.Dense, nl)
		c.g = make([]*mat.Dense, nl)
		c.o = make([]*mat.Dense, nl)
		c.tanhC = make([]*mat.Dense, nl)
	}
	c.h, c.c = c.h[:nl], c.c[:nl]
	c.i, c.f = c.i[:nl], c.f[:nl]
	c.g, c.o = c.g[:nl], c.o[:nl]
	c.tanhC = c.tanhC[:nl]
	return c
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// sparseEnough reports whether fewer than a quarter of m's entries are
// nonzero — past that, the skip branch in the sparse kernels beats the
// dense kernel's unconditional multiply-adds. The scan is O(len) per
// step versus the O(len·4H) product it guards. Layer-0 inputs here are
// one-hot token/feature encodings, so this is almost always true in
// training and false for dense random benches.
func sparseEnough(m *mat.Dense) bool {
	nz := 0
	for _, v := range m.Data {
		if v != 0 {
			nz++
		}
	}
	return nz*4 < len(m.Data)
}

// Forward runs the network over xs (a sequence of [B x InputDim] step
// inputs), starting from state st (zero state if nil; st is updated in
// place to the final state). It returns per-step output logits
// [B x OutputDim] and a cache for Backward.
//
// The returned slices, the cache, and the updated state alias the
// network's workspace; they stay valid until the next-but-one Forward
// call on this network. Forward is not safe for concurrent use on one
// network (use StepForward with distinct states for that).
func (n *LSTM) Forward(xs []*mat.Dense, st *State) ([]*mat.Dense, *Cache) {
	if len(xs) == 0 {
		return nil, &Cache{}
	}
	T := len(xs)
	b := xs[0].Rows
	h := n.Cfg.HiddenDim
	id := n.Cfg.InputDim
	nl := len(n.layers)
	ws := n.workspace()
	ar := ws.flip()
	cache := ar.lstmCache(nl)
	cache.steps, cache.batch = T, b
	packed := mat.PackingEnabled()
	if packed {
		ws.wh = panels(ws.wh, nl)
	}
	ts := ar.fslice(h) // vecTanhInto scratch

	// Pack the step inputs into one [T·B x InputDim] slab so layer 0's
	// input projection runs as a single sequence-fused GEMM.
	X := ar.slab(T*b, id, false)
	for t, x := range xs {
		if x.Rows != b || x.Cols != id {
			panic(fmt.Sprintf("nn: step %d input %v, want %dx%d", t, x, b, id))
		}
		copy(X.Data[t*b*id:(t+1)*b*id], x.Data)
	}
	cache.x = X

	layerX := X
	for l, layer := range n.layers {
		// H and C hold blocks 0..T; block 0 is the incoming state,
		// copied before anything else is written because the incoming
		// views may alias this very slab (a state carried from two
		// Forward calls ago lands back on the same arena).
		H := ar.slab((T+1)*b, h, false)
		C := ar.slab((T+1)*b, h, false)
		if st != nil {
			if st.H[l].Rows != b || st.H[l].Cols != h {
				panic(fmt.Sprintf("nn: state layer %d is %dx%d, want %dx%d", l, st.H[l].Rows, st.H[l].Cols, b, h))
			}
			copy(H.Data[:b*h], st.H[l].Data)
			copy(C.Data[:b*h], st.C[l].Data)
		} else {
			clear(H.Data[:b*h])
			clear(C.Data[:b*h])
		}
		I := ar.slab(T*b, h, false)
		F := ar.slab(T*b, h, false)
		G := ar.slab(T*b, h, false)
		O := ar.slab(T*b, h, false)
		TC := ar.slab(T*b, h, false)
		// Sequence-fused input projection: all T steps' x·Wx in one
		// GEMM. The recurrent term and bias are added per step below,
		// preserving the per-element accumulation order (x-terms,
		// h-terms, bias) of the per-step formulation bit for bit.
		Z := ar.slab(T*b, 4*h, true)
		if layer.first && sparseEnough(layerX) {
			mat.MulAddSparse(Z, layerX, layer.wx.Value)
		} else {
			mat.MulAdd(Z, layerX, layer.wx.Value)
		}
		// The recurrent weights are constant for the whole window, so
		// they are packed once here and all T steps run the packed
		// kernel — bit-identical to MulAdd, which at one shard row
		// would fall to the scalar axpy loop.
		var whp *mat.PackedDense
		if packed {
			whp = &ws.wh[l]
			layer.wh.Value.PackInto(whp)
		}
		bias := layer.b.Value.Row(0)
		for t := 0; t < T; t++ {
			zt := ar.view(Z, t*b, (t+1)*b)
			hPrev := ar.view(H, t*b, (t+1)*b)
			if whp != nil {
				mat.MulAddPackedPar(zt, hPrev, whp)
			} else {
				mat.MulAdd(zt, hPrev, layer.wh.Value)
			}
			mat.AddBiasRows(zt, bias)
			for r := 0; r < b; r++ {
				// Gate and cell activations through the vectorized
				// kernels, bit-identical to the scalar sigmoid and
				// math.Tanh that StepForward keeps as the reference.
				row := t*b + r
				zrow := zt.Row(r)
				irow, frow := I.Row(row), F.Row(row)
				grow, orow := G.Row(row), O.Row(row)
				cprow := C.Row(row) // block t: previous cell
				crow := C.Row(row + b)
				hrow := H.Row(row + b)
				tcrow := TC.Row(row)
				SigmoidIntoVec(zrow[:h], irow)
				SigmoidIntoVec(zrow[h:2*h], frow)
				vecTanhInto(grow, zrow[2*h:3*h], ts)
				SigmoidIntoVec(zrow[3*h:], orow)
				for j := range crow {
					crow[j] = frow[j]*cprow[j] + irow[j]*grow[j]
				}
				vecTanhInto(tcrow, crow, ts)
				for j := range hrow {
					hrow[j] = orow[j] * tcrow[j]
				}
			}
		}
		cache.h[l], cache.c[l] = H, C
		cache.i[l], cache.f[l] = I, F
		cache.g[l], cache.o[l] = G, O
		cache.tanhC[l] = TC
		if st != nil {
			st.H[l] = ar.view(H, T*b, (T+1)*b)
			st.C[l] = ar.view(C, T*b, (T+1)*b)
		}
		layerX = ar.view(H, b, (T+1)*b)
	}

	// Output head, fused across the sequence: Y = H_top·Wy + by.
	Y := ar.slab(T*b, n.Cfg.OutputDim, true)
	mat.MulAdd(Y, layerX, n.wy.Value)
	mat.AddBiasRows(Y, n.by.Value.Row(0))
	ys := cache.ys[:0]
	for t := 0; t < T; t++ {
		ys = append(ys, ar.view(Y, t*b, (t+1)*b))
	}
	cache.ys = ys
	return ys, cache
}

// Backward runs backpropagation-through-time. dys holds the gradient of
// the loss with respect to each step's output logits (same shapes as the
// Forward outputs). Gradients are accumulated into the parameters; call
// ZeroGrads first for a fresh minibatch.
//
// Scratch bump-continues on the arena holding the cache, and parameter
// gradients for Wx, Wh and the head accumulate via sequence-fused GEMMs
// over the whole window rather than one small GEMM per step.
func (n *LSTM) Backward(cache *Cache, dys []*mat.Dense) {
	if len(dys) != cache.T() {
		panic(fmt.Sprintf("nn: Backward got %d grads for %d steps", len(dys), cache.T()))
	}
	if cache.T() == 0 {
		return
	}
	T := cache.steps
	b := cache.batch
	h := n.Cfg.HiddenDim
	od := n.Cfg.OutputDim
	nl := len(n.layers)
	ar := cache.ar
	ws := n.workspace()
	packed := mat.PackingEnabled()
	if packed {
		ws.whT = panels(ws.whT, nl)
	}

	// Pack the head gradients and run the head backward fused.
	DY := ar.slab(T*b, od, false)
	for t, dy := range dys {
		if dy.Rows != b || dy.Cols != od {
			panic(fmt.Sprintf("nn: Backward step %d grad %v", t, dy))
		}
		copy(DY.Data[t*b*od:(t+1)*b*od], dy.Data)
	}
	hTop := ar.view(cache.h[nl-1], b, (T+1)*b)
	mat.MulATB(n.wy.Grad, hTop, DY)
	mat.SumRows(n.by.Grad.Row(0), DY)

	// DH holds, for the layer currently being processed, the gradient
	// arriving from above at every step: from the head for the top
	// layer, then from layer l's input projection for layer l-1.
	DH := ar.slab(T*b, h, true)
	mat.MulABT(DH, DY, n.wy.Value)

	DZ := ar.slab(T*b, 4*h, false) // pre-activation grads, fully written per layer
	dc := ar.slab(b, h, false)     // carried cell gradient
	dhrec := ar.slab(b, h, false)  // carried recurrent hidden gradient
	for l := nl - 1; l >= 0; l-- {
		layer := n.layers[l]
		C := cache.c[l]
		I, F := cache.i[l], cache.f[l]
		G, O := cache.g[l], cache.o[l]
		TC := cache.tanhC[l]
		// whᵀ is packed once per window, like wh in Forward.
		var whT *mat.PackedDense
		if packed {
			whT = &ws.whT[l]
			layer.wh.Value.PackTInto(whT)
		}
		dc.Zero()
		dhrec.Zero()
		for t := T - 1; t >= 0; t-- {
			for r := 0; r < b; r++ {
				row := t*b + r
				dhRow, recRow, dcRow := DH.Row(row), dhrec.Row(r), dc.Row(r)
				iRow, fRow := I.Row(row), F.Row(row)
				gRow, oRow := G.Row(row), O.Row(row)
				tcRow, cpRow := TC.Row(row), C.Row(row) // block t: previous cell
				dzRow := DZ.Row(row)
				for j := 0; j < h; j++ {
					dH := dhRow[j] + recRow[j]
					doj := dH * tcRow[j]
					dcj := dcRow[j] + dH*oRow[j]*(1-tcRow[j]*tcRow[j])
					dij := dcj * gRow[j]
					dfj := dcj * cpRow[j]
					dgj := dcj * iRow[j]
					// Pre-activation gradients.
					dzRow[j] = dij * iRow[j] * (1 - iRow[j])
					dzRow[h+j] = dfj * fRow[j] * (1 - fRow[j])
					dzRow[2*h+j] = dgj * (1 - gRow[j]*gRow[j])
					dzRow[3*h+j] = doj * oRow[j] * (1 - oRow[j])
					// Gradient to previous cell.
					dcRow[j] = dcj * fRow[j]
				}
			}
			// Recurrent gradient into step t-1. Accumulating into the
			// zeroed dhrec through the whᵀ panel reproduces MulABT's
			// dot-then-add bits: both start from +0 and add the same
			// terms in ascending order.
			if t > 0 {
				dzt := ar.view(DZ, t*b, (t+1)*b)
				dhrec.Zero()
				if whT != nil {
					mat.MulAddPackedPar(dhrec, dzt, whT)
				} else {
					mat.MulABT(dhrec, dzt, layer.wh.Value)
				}
			}
		}
		// Parameter gradients, sequence-fused over all T steps.
		var xl *mat.Dense
		if l == 0 {
			xl = cache.x
		} else {
			xl = ar.view(cache.h[l-1], b, (T+1)*b)
		}
		if layer.first && sparseEnough(xl) {
			mat.MulATBSparse(layer.wx.Grad, xl, DZ)
		} else {
			mat.MulATB(layer.wx.Grad, xl, DZ)
		}
		mat.MulATB(layer.wh.Grad, ar.view(cache.h[l], 0, T*b), DZ)
		mat.SumRows(layer.b.Grad.Row(0), DZ)
		// Gradient to the layer below's hidden state at every step.
		if l > 0 {
			DH.Zero()
			mat.MulABT(DH, DZ, layer.wx.Value)
		}
	}
}

// StepForward runs a single step for batch size 1 during generation:
// x is one input vector, st is updated in place, and the output logits
// are returned (valid until the next StepForward on the same state).
// All scratch lives on the state, so concurrent StepForward calls on one
// network are safe as long as each goroutine uses its own state.
func (n *LSTM) StepForward(x []float64, st *State) []float64 {
	if len(x) != n.Cfg.InputDim {
		panic(fmt.Sprintf("nn: StepForward input len %d, want %d", len(x), n.Cfg.InputDim))
	}
	h := n.Cfg.HiddenDim
	if st.z == nil || st.z.Cols != 4*h {
		st.z = mat.NewDense(1, 4*h)
	}
	if st.y == nil || st.y.Cols != n.Cfg.OutputDim {
		st.y = mat.NewDense(1, n.Cfg.OutputDim)
	}
	st.xh.Rows, st.xh.Cols, st.xh.Data = 1, len(x), x
	in := &st.xh
	for l, layer := range n.layers {
		z := st.z
		z.Zero()
		if layer.first && sparseEnough(in) {
			mat.MulAddSparse(z, in, layer.wx.Value)
		} else {
			mat.MulAdd(z, in, layer.wx.Value)
		}
		mat.MulAdd(z, st.H[l], layer.wh.Value)
		mat.AddBiasRows(z, layer.b.Value.Row(0))
		zrow := z.Row(0)
		hrow, crow := st.H[l].Row(0), st.C[l].Row(0)
		for j := 0; j < h; j++ {
			ij := sigmoid(zrow[j])
			fj := sigmoid(zrow[h+j])
			gj := math.Tanh(zrow[2*h+j])
			oj := sigmoid(zrow[3*h+j])
			crow[j] = fj*crow[j] + ij*gj
			hrow[j] = oj * math.Tanh(crow[j])
		}
		in = st.H[l]
	}
	st.y.Zero()
	mat.MulAdd(st.y, in, n.wy.Value)
	mat.AddBiasRows(st.y, n.by.Value.Row(0))
	return st.y.Row(0)
}
