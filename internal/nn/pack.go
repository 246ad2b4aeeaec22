package nn

import (
	"repro/internal/mat"
)

// Packed serving weights (DESIGN.md §6.5). A PackedLSTM is a
// publish-time conversion of a network's decode matrices (wx, wh, wy)
// into cache-blocked panels for the packed step kernels; biases stay
// plain slices, applied by the fused tile epilogues. Packing copies
// values bit-for-bit and the packed kernels accumulate in exactly the
// unpacked order, so a fleet running on panels emits byte-identical
// traces — panels change where weights live, never what they compute.
//
// A PackedLSTM is immutable after Pack and safe to share across
// fleets and goroutines; build one per published snapshot (internal/
// core caches it next to the model's f32 conversion) and rebuild on
// hot reload — a reloaded model value starts with an empty cache, so
// stale panels cannot survive a weight swap.

// packedLayer holds one layer's panel-packed step matrices.
type packedLayer struct {
	wx *mat.PackedDense // [in x 4H]
	wh *mat.PackedDense // [H x 4H]
}

// PackedLSTM carries panel-packed copies of an LSTM's decode weights.
// Training does not use one, because the optimizer updates the
// unpacked Params between windows. Instead, Forward and Backward repack
// each layer's wh (and whᵀ) into workspace panels once per BPTT window,
// and serving snapshots re-pack from the trained Params.
type PackedLSTM struct {
	src    *LSTM
	layers []packedLayer
	wy     *mat.PackedDense // [H x OutputDim]
}

// Pack converts the network's decode weights into panels. Call at
// snapshot publish; the result is valid until the weights change, at
// which point it must be rebuilt (hot reload publishes a fresh model
// value, so its pack cache starts empty).
func (n *LSTM) Pack() *PackedLSTM {
	p := &PackedLSTM{src: n}
	for _, l := range n.layers {
		p.layers = append(p.layers, packedLayer{
			wx: l.wx.Value.Pack(),
			wh: l.wh.Value.Pack(),
		})
	}
	p.wy = n.wy.Value.Pack()
	return p
}

// packedLayer32 and PackedLSTM32 are the float32 counterparts, packed
// from the Convert32 snapshot the f32 serving path runs on.
type packedLayer32 struct {
	wx *mat.PackedDense32
	wh *mat.PackedDense32
}

// PackedLSTM32 carries panel-packed copies of an LSTM32's decode
// weights.
type PackedLSTM32 struct {
	src    *LSTM32
	layers []packedLayer32
	wy     *mat.PackedDense32
}

// Pack converts the f32 snapshot's decode weights into panels.
func (n *LSTM32) Pack() *PackedLSTM32 {
	p := &PackedLSTM32{src: n}
	for _, l := range n.layers {
		p.layers = append(p.layers, packedLayer32{
			wx: l.wx.Pack32(),
			wh: l.wh.Pack32(),
		})
	}
	p.wy = n.wy.Pack32()
	return p
}

// NewFleetPacked is NewFleet with the step GEMMs bound to packed
// panels and the bias/gate-activation pass fused into the wh kernel's
// tile epilogue (bit-identical to the unpacked fleet; see Fleet's
// comment). p must have been packed from this network; a nil p yields
// a plain unpacked fleet, which is how REPRO_NOPACK falls through.
func (n *LSTM) NewFleetPacked(capacity int, p *PackedLSTM) *Fleet {
	f := n.NewFleet(capacity)
	if p == nil {
		return f
	}
	if p.src != n {
		panic("nn: NewFleetPacked panels packed from a different network")
	}
	f.panels = p
	// The epilogues are built once here so steady-state Step calls
	// allocate nothing. Each reads the current subset through the fleet's
	// preallocated view headers (f.zv / f.yv), which Step points at the
	// gathered rows before the packed GEMM runs.
	f.epis = make([]func(int, int), len(n.layers))
	for l := range n.layers {
		f.epis[l] = f.gateEpi(l)
	}
	f.headEpi = f.headBiasEpi()
	return f
}

// Packed reports whether this fleet steps on panel-packed weights
// (false on plain NewFleet fleets and under REPRO_NOPACK). Diagnostic
// only — packed and unpacked fleets are byte-identical.
func (f *Fleet) Packed() bool { return f.panels != nil }

// Packed reports whether this f32 fleet steps on panel-packed weights.
func (f *Fleet32) Packed() bool { return f.panels != nil }

// gateEpi returns layer l's fused epilogue: for gate columns [j0, j1)
// of every gathered row, add the bias and apply the gate
// nonlinearity — sigmoid on the i/f/o segments, tanh on the g
// segment — while the tile is still hot in L1. Activations and bias
// adds are elementwise, so applying them per tile computes exactly
// what the unpacked path's whole-slab AddBiasRows + per-row activation
// sweep computes.
func (f *Fleet) gateEpi(l int) func(j0, j1 int) {
	layer := f.net.layers[l]
	hd := f.net.Cfg.HiddenDim
	return func(j0, j1 int) {
		bias := layer.b.Value.Row(0)
		k := f.zv.Rows
		for i := 0; i < k; i++ {
			zrow := f.zv.Row(i)
			for j := j0; j < j1; j++ {
				zrow[j] += bias[j]
			}
			// A tile may straddle gate boundaries, so apply each
			// activation to its intersection with [j0, j1). Segments are
			// at most one tile wide (≤ hd after intersection), so f.ts
			// always fits the tanh scratch.
			if lo, hi := j0, min(j1, 2*hd); lo < hi {
				vecSigmoid(zrow[lo:hi]) // i and f gates
			}
			if lo, hi := max(j0, 2*hd), min(j1, 3*hd); lo < hi {
				vecTanhInto(zrow[lo:hi], zrow[lo:hi], f.ts) // g gate
			}
			if lo, hi := max(j0, 3*hd), j1; lo < hi {
				vecSigmoid(zrow[lo:hi]) // o gate
			}
		}
	}
}

// headBiasEpi returns the head epilogue: add the output bias to the
// finished logit columns of every gathered row.
func (f *Fleet) headBiasEpi() func(j0, j1 int) {
	return func(j0, j1 int) {
		bias := f.net.by.Value.Row(0)
		k := f.yv.Rows
		for i := 0; i < k; i++ {
			yrow := f.yv.Row(i)
			for j := j0; j < j1; j++ {
				yrow[j] += bias[j]
			}
		}
	}
}

// NewFleet32Packed is NewFleet32 bound to f32 panels with the fused
// gate epilogue; a nil p yields a plain unpacked fleet (REPRO_NOPACK).
func (n *LSTM32) NewFleet32Packed(capacity int, p *PackedLSTM32) *Fleet32 {
	f := n.NewFleet32(capacity)
	if p == nil {
		return f
	}
	if p.src != n {
		panic("nn: NewFleet32Packed panels packed from a different network")
	}
	f.panels = p
	f.epis = make([]func(int, int), len(n.layers))
	for l := range n.layers {
		f.epis[l] = f.gateEpi32(l)
	}
	f.headEpi = f.headBiasEpi32()
	return f
}

// gateEpi32 is gateEpi on the f32 slab: bias add plus the native f32
// segment activations (SigmoidSlice32/TanhSlice32 allow exact
// aliasing and any length, with asm and portable paths bit-identical,
// so the per-tile split cannot change a bit).
func (f *Fleet32) gateEpi32(l int) func(j0, j1 int) {
	layer := f.net.layers[l]
	hd := f.net.Cfg.HiddenDim
	return func(j0, j1 int) {
		bias := layer.b
		k := f.zv.Rows
		for i := 0; i < k; i++ {
			zrow := f.zv.Row(i)
			for j := j0; j < j1; j++ {
				zrow[j] += bias[j]
			}
			if lo, hi := j0, min(j1, 2*hd); lo < hi {
				mat.SigmoidSlice32(zrow[lo:hi], zrow[lo:hi]) // i and f gates
			}
			if lo, hi := max(j0, 2*hd), min(j1, 3*hd); lo < hi {
				mat.TanhSlice32(zrow[lo:hi], zrow[lo:hi]) // g gate
			}
			if lo, hi := max(j0, 3*hd), j1; lo < hi {
				mat.SigmoidSlice32(zrow[lo:hi], zrow[lo:hi]) // o gate
			}
		}
	}
}

// headBiasEpi32 adds the f32 output bias to finished logit columns.
func (f *Fleet32) headBiasEpi32() func(j0, j1 int) {
	return func(j0, j1 int) {
		bias := f.net.by
		k := f.y32v.Rows
		for i := 0; i < k; i++ {
			yrow := f.y32v.Row(i)
			for j := j0; j < j1; j++ {
				yrow[j] += bias[j]
			}
		}
	}
}
