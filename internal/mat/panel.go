package mat

import (
	"fmt"
	"os"
	"unsafe"

	"repro/internal/par"
)

// Publish-time packed weight panels (DESIGN.md §6.5). The decode hot
// path multiplies small activation batches against the same immutable
// weight matrices every round; MulAddBatched streams those matrices
// row-major, so every k step loads B with an n-element stride and a
// gate slab wider than L1 is re-fetched from L2 once per activation
// row. PackedDense/PackedDense32 convert a weight matrix once — at
// snapshot publish — into j-tile-major panels: the columns are split
// into register-width tiles (16 then 4 float64 columns; 32 then 8
// float32 columns; a column-major tail below that), and each tile
// stores its k rows contiguously. The packed kernels then sweep one
// tile across all activation rows with sequential panel loads, so a
// tile (k×16 float64 = 8 KB at k=64) stays L1-resident for the whole
// row sweep instead of the full matrix streaming from L2 per row.
//
// Bit-compatibility: the panel layout permutes only the ADDRESS of
// each B element, never the accumulation order. Every packed kernel —
// assembly and portable — accumulates each dst element's k terms in
// ascending k with a separate multiply and add (or one fused rounding
// per term under the f32 SetFastMath contract), exactly like
// MulAddBatched/MulAddBatched32. Packing therefore cannot change a
// single output bit, which is what lets the decode engines switch
// panels on and off (REPRO_NOPACK) without perturbing a trace.
//
// The epilogue variants (MulAddPackedEpi*) call back after each
// finished j-tile so the caller can apply its bias/activation pass
// while the tile is still hot in L1, instead of a second full sweep
// over the output slab; see the function comments for the contract.

// usePackedB is the REPRO_NOPACK kill-switch. Setting REPRO_NOPACK (to
// any non-empty value) turns off exactly these panel consumers:
//
//   - MulAdd's packed-B dispatch for forward GEMMs above packMinFlops;
//   - the per-window recurrent weight panels of LSTM training
//     (internal/nn reads PackingEnabled once per Forward/Backward);
//   - the publish-time decode panels, which internal/core gates on the
//     same environment variable.
//
// It does not cover the transpose-packed backward paths of MulATB and
// MulABT above packMinFlops (pack.go), which always run. Every packed
// path is bit-identical to its unpacked twin, so the switch never
// changes results — it exists as a kill-switch and so CI can prove the
// identity (scripts/check.sh runs a REPRO_NOPACK=1 tier). A variable,
// not a const, so in-package tests can force either path.
var usePackedB = os.Getenv("REPRO_NOPACK") == ""

// PackingEnabled reports whether panel packing is on (REPRO_NOPACK
// unset); see usePackedB for what it gates.
func PackingEnabled() bool { return usePackedB }

// Panel tile widths. The wide tile matches the widest register block
// of the batched kernels (4 YMM accumulators); the narrow tile matches
// their cleanup block (1 YMM). Columns beyond the narrow multiple are
// stored column-major so the scalar tail loop also gets contiguous
// loads.
const (
	panelWide64   = 16
	panelNarrow64 = 4
	panelWide32   = 32
	panelNarrow32 = 8
)

// alignedFloats returns an n-element slice whose backing array starts
// on a cache-line boundary, so panels never straddle or falsely share
// a line with a neighboring allocation. Alignment changes addresses
// only, never values.
func alignedFloats(n int) []float64 {
	const pad = cacheLineBytes / 8
	raw := make([]float64, n+pad)
	off := 0
	if n > 0 {
		addr := uintptr(unsafe.Pointer(&raw[0]))
		if rem := addr % cacheLineBytes; rem != 0 {
			off = int((cacheLineBytes - rem) / 8)
		}
	}
	return raw[off : off+n]
}

func alignedFloats32(n int) []float32 {
	const pad = cacheLineBytes / 4
	raw := make([]float32, n+pad)
	off := 0
	if n > 0 {
		addr := uintptr(unsafe.Pointer(&raw[0]))
		if rem := addr % cacheLineBytes; rem != 0 {
			off = int((cacheLineBytes - rem) / 4)
		}
	}
	return raw[off : off+n]
}

const cacheLineBytes = 64

// PackedDense is a float64 weight matrix converted into j-tile-major
// panels for the packed kernels. One built by Pack is immutable and
// safe to share across goroutines and fleets; PackInto/PackTInto
// repack a caller-owned one in place (training scratch).
type PackedDense struct {
	Rows, Cols int // shape of the original (k×n) matrix
	data       []float64
}

// Pack converts m into cache-blocked panels (see the file comment for
// the layout). The conversion is a pure copy — every element keeps its
// value — and allocates once; call it at publish time, not per GEMM.
func (m *Dense) Pack() *PackedDense {
	p := &PackedDense{}
	m.PackInto(p)
	return p
}

// PackInto is Pack into reused storage: p takes m's shape and panel
// copy, and its aligned backing grows only when m no longer fits, so a
// caller that repacks changing weights (one training window at a time)
// allocates nothing in steady state. p must not be read concurrently
// with a repack.
func (m *Dense) PackInto(p *PackedDense) {
	p.reshape(m.Rows, m.Cols)
	packPanels(p.data, m.Data, m.Rows, m.Cols, m.Cols, 1)
}

// PackTInto is PackInto for mᵀ: p becomes the m.Cols×m.Rows panel of
// the transpose, read straight out of m without a transposed copy.
func (m *Dense) PackTInto(p *PackedDense) {
	p.reshape(m.Cols, m.Rows)
	packPanels(p.data, m.Data, m.Cols, m.Rows, 1, m.Cols)
}

func (p *PackedDense) reshape(k, n int) {
	p.Rows, p.Cols = k, n
	if cap(p.data) < k*n {
		p.data = alignedFloats(k * n)
	}
	p.data = p.data[:k*n]
}

func (p *PackedDense) String() string {
	return fmt.Sprintf("PackedDense(%dx%d)", p.Rows, p.Cols)
}

// packPanels writes the k×n matrix whose (kk, j) element is
// src[kk*rs+j*cs] into dst in panel order: wide (16-column) tiles
// first, then narrow (4-column) tiles, then the column-major tail
// (one-column tiles), each tile k-major. The strides let one loop pack
// a matrix (rs=n, cs=1) or its transpose (rs=1, cs=rows).
func packPanels(dst, src []float64, k, n, rs, cs int) {
	nw, nn := n&^(panelWide64-1), n&^(panelNarrow64-1)
	off := 0
	for j0 := 0; j0 < n; {
		w := 1
		switch {
		case j0 < nw:
			w = panelWide64
		case j0 < nn:
			w = panelNarrow64
		}
		for kk := 0; kk < k; kk++ {
			base := kk*rs + j0*cs
			if cs == 1 {
				copy(dst[off:off+w], src[base:base+w])
			} else {
				for c := range dst[off : off+w] {
					dst[off+c] = src[base+c*cs]
				}
			}
			off += w
		}
		j0 += w
	}
}

// Unpack returns the original row-major matrix (a fresh copy), the
// exact inverse of Pack. Used by tests and diagnostics.
func (p *PackedDense) Unpack() *Dense {
	out := NewDense(p.Rows, p.Cols)
	k, n := p.Rows, p.Cols
	nw, nn := n&^(panelWide64-1), n&^(panelNarrow64-1)
	off := 0
	for j0 := 0; j0 < nw; j0 += panelWide64 {
		for kk := 0; kk < k; kk++ {
			copy(out.Data[kk*n+j0:kk*n+j0+panelWide64], p.data[off:off+panelWide64])
			off += panelWide64
		}
	}
	for j0 := nw; j0 < nn; j0 += panelNarrow64 {
		for kk := 0; kk < k; kk++ {
			copy(out.Data[kk*n+j0:kk*n+j0+panelNarrow64], p.data[off:off+panelNarrow64])
			off += panelNarrow64
		}
	}
	for j := nn; j < n; j++ {
		for kk := 0; kk < k; kk++ {
			out.Data[kk*n+j] = p.data[off]
			off++
		}
	}
	return out
}

// MulAddPacked computes dst += a * b against a packed panel,
// bit-identically to MulAddBatched on the unpacked matrix: same
// ascending-k accumulation per element, separate multiply and add.
// Single-goroutine, like MulAddBatched — the decode scheduler owns its
// own concurrency.
func MulAddPacked(dst, a *Dense, b *PackedDense) {
	MulAddPackedEpi(dst, a, b, nil)
}

// MulAddPackedEpi is MulAddPacked with a fused epilogue: after the
// columns [j0, j1) of every dst row have received their full
// accumulation, epi(j0, j1) is invoked — while those columns are still
// hot in cache — before the kernel moves to the next tile. The calls
// partition [0, b.Cols) in ascending order (wide tiles, narrow tiles,
// then one call for the scalar tail, when each is non-empty). A nil
// epi is MulAddPacked. The epilogue must only touch dst columns
// [j0, j1); it runs even when a has zero rows, so bias-style epilogues
// need no special casing.
func MulAddPackedEpi(dst, a *Dense, b *PackedDense, epi func(j0, j1 int)) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAddPacked shape mismatch %v * %v -> %v", a, b, dst))
	}
	mulAddPackedRows(dst, a, b, 0, a.Rows, epi)
}

// mulAddPackedRows runs the packed kernel over dst rows [lo, hi). The
// epilogue (nil allowed) sees every tile of the column range once,
// regardless of the row range — callers that split rows across workers
// must pass epi only from one range (MulAdd's dispatch passes nil).
func mulAddPackedRows(dst, a *Dense, b *PackedDense, lo, hi int, epi func(j0, j1 int)) {
	m := hi - lo
	k, n := b.Rows, b.Cols
	nw, nn := n&^(panelWide64-1), n&^(panelNarrow64-1)
	run := m > 0 && k > 0
	var ad, dd []float64
	if run {
		ad = a.Data[lo*k : hi*k]
		dd = dst.Data[lo*n : hi*n]
	}
	off := 0
	for j0 := 0; j0 < nw; j0 += panelWide64 {
		if run {
			tile := b.data[off : off+k*panelWide64]
			if useBatchASM {
				gemmPacked16AVX2(&dd[j0], &ad[0], &tile[0], m, k, n)
			} else {
				mulAddPackedTile(dd[j0:], ad, tile, m, k, n, panelWide64)
			}
		}
		off += k * panelWide64
		if epi != nil {
			epi(j0, j0+panelWide64)
		}
	}
	for j0 := nw; j0 < nn; j0 += panelNarrow64 {
		if run {
			tile := b.data[off : off+k*panelNarrow64]
			if useBatchASM {
				gemmPacked4AVX2(&dd[j0], &ad[0], &tile[0], m, k, n)
			} else {
				mulAddPackedTile(dd[j0:], ad, tile, m, k, n, panelNarrow64)
			}
		}
		off += k * panelNarrow64
		if epi != nil {
			epi(j0, j0+panelNarrow64)
		}
	}
	if nn < n {
		for j := nn; j < n; j++ {
			if run {
				col := b.data[off : off+k]
				for i := 0; i < m; i++ {
					arow := ad[i*k : i*k+k]
					s := dd[i*n+j]
					for kk, av := range arow {
						s += av * col[kk]
					}
					dd[i*n+j] = s
				}
			}
			off += k
		}
		if epi != nil {
			epi(nn, n)
		}
	}
}

// mulAddPackedTile is the portable packed-tile kernel: one w-column
// j-tile (w a multiple of 4) swept across m rows in 4-column register
// groups, k innermost and ascending with separate multiply and add —
// the exact rounding sequence of mulAddJTiles, so assembly on/off
// cannot change bits. dst is addressed at the tile's first column with
// row stride n; tile is the k×w panel block.
func mulAddPackedTile(dst, a, tile []float64, m, k, n, w int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		drow := dst[i*n : i*n+w]
		for j := 0; j+4 <= w; j += 4 {
			s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
			for kk, av := range arow {
				trow := tile[kk*w+j : kk*w+j+4]
				s0 += av * trow[0]
				s1 += av * trow[1]
				s2 += av * trow[2]
				s3 += av * trow[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
	}
}

// mulAddPackedB is MulAdd's forward fast path: pack b once into pooled
// panel scratch, then run the packed kernel row-parallel. The pack pass
// costs one extra sweep over b, amortized across a.Rows row sweeps that
// each replace strided B loads with contiguous L1-resident tiles;
// paired measurement at the training and BPTT shapes shows the
// crossover sits below packMinFlops (TestPairedForwardGEMMMeasure).
// Bit-identical to mulAddRows: same ascending-k order per element.
func mulAddPackedB(dst, a, b *Dense) {
	k, n := b.Rows, b.Cols
	sp := packGet(k * n)
	pb := PackedDense{Rows: k, Cols: n, data: *sp}
	packPanels(pb.data, b.Data, k, n, n, 1)
	MulAddPackedPar(dst, a, &pb)
	packPut(sp)
}

// MulAddPackedPar is MulAddPacked for callers that do not own their
// concurrency (training): row-parallel above the same threshold MulAdd
// uses, serial and allocation-free below it. Rows are independent, so
// the split cannot change a bit.
func MulAddPackedPar(dst, a *Dense, b *PackedDense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAddPackedPar shape mismatch %v * %v -> %v", a, b, dst))
	}
	rowFlops := b.Rows * b.Cols
	if a.Rows*rowFlops < parMinFlops || par.Procs() == 1 {
		mulAddPackedRows(dst, a, b, 0, a.Rows, nil)
		return
	}
	par.For(a.Rows, gemmGrain(rowFlops), func(lo, hi int) {
		mulAddPackedRows(dst, a, b, lo, hi, nil)
	})
}

// PackedDense32 is the float32 counterpart of PackedDense: 32-column
// wide tiles, 8-column narrow tiles, column-major tail, each k-major.
// Immutable after Pack32 and safe to share.
type PackedDense32 struct {
	Rows, Cols int
	data       []float32
}

// Pack32 converts m into float32 panels (see PackedDense).
func (m *Dense32) Pack32() *PackedDense32 {
	p := &PackedDense32{Rows: m.Rows, Cols: m.Cols, data: alignedFloats32(m.Rows * m.Cols)}
	k, n := m.Rows, m.Cols
	nw, nn := n&^(panelWide32-1), n&^(panelNarrow32-1)
	off := 0
	for j0 := 0; j0 < nw; j0 += panelWide32 {
		for kk := 0; kk < k; kk++ {
			copy(p.data[off:off+panelWide32], m.Data[kk*n+j0:kk*n+j0+panelWide32])
			off += panelWide32
		}
	}
	for j0 := nw; j0 < nn; j0 += panelNarrow32 {
		for kk := 0; kk < k; kk++ {
			copy(p.data[off:off+panelNarrow32], m.Data[kk*n+j0:kk*n+j0+panelNarrow32])
			off += panelNarrow32
		}
	}
	for j := nn; j < n; j++ {
		for kk := 0; kk < k; kk++ {
			p.data[off] = m.Data[kk*n+j]
			off++
		}
	}
	return p
}

func (p *PackedDense32) String() string {
	return fmt.Sprintf("PackedDense32(%dx%d)", p.Rows, p.Cols)
}

// MulAddPacked32 computes dst += a * b against a float32 panel,
// bit-identically to MulAddBatched32 on the unpacked matrix under both
// accumulation contracts (separate rounding by default; one fused
// rounding per term under SetFastMath, reproduced portably by fma32).
func MulAddPacked32(dst, a *Dense32, b *PackedDense32) {
	MulAddPackedEpi32(dst, a, b, nil)
}

// MulAddPackedEpi32 is MulAddPacked32 with the fused tile epilogue;
// see MulAddPackedEpi for the callback contract (here the partition is
// 32-column tiles, 8-column tiles, then the scalar tail).
func MulAddPackedEpi32(dst, a *Dense32, b *PackedDense32, epi func(j0, j1 int)) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAddPacked32 shape mismatch %v * %v -> %v", a, b, dst))
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	nw, nn := n&^(panelWide32-1), n&^(panelNarrow32-1)
	run := m > 0 && k > 0
	fma := fastMath
	off := 0
	for j0 := 0; j0 < nw; j0 += panelWide32 {
		if run {
			tile := b.data[off : off+k*panelWide32]
			switch {
			case useBatchASM && fma:
				gemmPacked32FMA(&dst.Data[j0], &a.Data[0], &tile[0], m, k, n)
			case useBatchASM:
				gemmPacked32AVX2(&dst.Data[j0], &a.Data[0], &tile[0], m, k, n)
			case fma:
				mulAddPackedTileFMA32(dst.Data[j0:], a.Data, tile, m, k, n, panelWide32)
			default:
				mulAddPackedTile32(dst.Data[j0:], a.Data, tile, m, k, n, panelWide32)
			}
		}
		off += k * panelWide32
		if epi != nil {
			epi(j0, j0+panelWide32)
		}
	}
	for j0 := nw; j0 < nn; j0 += panelNarrow32 {
		if run {
			tile := b.data[off : off+k*panelNarrow32]
			switch {
			case useBatchASM && fma:
				gemmPacked8FMA(&dst.Data[j0], &a.Data[0], &tile[0], m, k, n)
			case useBatchASM:
				gemmPacked8AVX2(&dst.Data[j0], &a.Data[0], &tile[0], m, k, n)
			case fma:
				mulAddPackedTileFMA32(dst.Data[j0:], a.Data, tile, m, k, n, panelNarrow32)
			default:
				mulAddPackedTile32(dst.Data[j0:], a.Data, tile, m, k, n, panelNarrow32)
			}
		}
		off += k * panelNarrow32
		if epi != nil {
			epi(j0, j0+panelNarrow32)
		}
	}
	if nn < n {
		for j := nn; j < n; j++ {
			if run {
				col := b.data[off : off+k]
				for i := 0; i < m; i++ {
					arow := a.Data[i*k : i*k+k]
					s := dst.Data[i*n+j]
					if fma {
						for kk, av := range arow {
							s = fma32(av, col[kk], s)
						}
					} else {
						for kk, av := range arow {
							s += av * col[kk]
						}
					}
					dst.Data[i*n+j] = s
				}
			}
			off += k
		}
		if epi != nil {
			epi(nn, n)
		}
	}
}

// mulAddPackedTile32 is the portable f32 packed-tile kernel (8-column
// register groups, separate multiply and add) — the schedule the
// assembly tile kernels vectorize, bit-identical to mulAddJTiles32.
func mulAddPackedTile32(dst, a []float32, tile []float32, m, k, n, w int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		drow := dst[i*n : i*n+w]
		for j := 0; j+8 <= w; j += 8 {
			s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
			s4, s5, s6, s7 := drow[j+4], drow[j+5], drow[j+6], drow[j+7]
			for kk, av := range arow {
				trow := tile[kk*w+j : kk*w+j+8]
				s0 += av * trow[0]
				s1 += av * trow[1]
				s2 += av * trow[2]
				s3 += av * trow[3]
				s4 += av * trow[4]
				s5 += av * trow[5]
				s6 += av * trow[6]
				s7 += av * trow[7]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			drow[j+4], drow[j+5], drow[j+6], drow[j+7] = s4, s5, s6, s7
		}
	}
}

// mulAddPackedTileFMA32 is the FMA-contract portable tile kernel: one
// fused rounding per term via fma32, bit-identical to the VFMADD231PS
// assembly tiles.
func mulAddPackedTileFMA32(dst, a []float32, tile []float32, m, k, n, w int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		drow := dst[i*n : i*n+w]
		for j := 0; j+8 <= w; j += 8 {
			s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
			s4, s5, s6, s7 := drow[j+4], drow[j+5], drow[j+6], drow[j+7]
			for kk, av := range arow {
				trow := tile[kk*w+j : kk*w+j+8]
				s0 = fma32(av, trow[0], s0)
				s1 = fma32(av, trow[1], s1)
				s2 = fma32(av, trow[2], s2)
				s3 = fma32(av, trow[3], s3)
				s4 = fma32(av, trow[4], s4)
				s5 = fma32(av, trow[5], s5)
				s6 = fma32(av, trow[6], s6)
				s7 = fma32(av, trow[7], s7)
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			drow[j+4], drow[j+5], drow[j+6], drow[j+7] = s4, s5, s6, s7
		}
	}
}
