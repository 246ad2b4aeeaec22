package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Golden digests of the training pin below. Every other identity test
// compares two current code paths, so a change that moved every path's
// bits the same way would pass them all; these constants are a fixed
// reference instead. They may only change together with a deliberate,
// documented change of the training arithmetic.
const (
	goldenWeightsSHA256 = "1b90e28b64079ef495f15deddda2002ce9741f781470fcc02e32c89f018a9722"
	goldenTraceSHA256   = "ca2449c083f592f863f72efe9024fce4509690eb2d423d13a32d239fb16f1c47"
)

// weightDigest hashes every trained number of the model — each LSTM
// parameter's name, shape and float64 bits in construction order, then
// the arrival GLM's weights and intercept. It stands in for hashing
// MarshalBinary: the snapshot is gob-encoded, and gob numbers types
// process-wide in first-use order, so the same weights serialize to
// different bytes depending on which other tests ran first.
func weightDigest(m *Model) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(xs []float64) {
		num(uint64(len(xs)))
		for _, x := range xs {
			num(math.Float64bits(x))
		}
	}
	for _, net := range []*nn.LSTM{m.Flavor.Net, m.Lifetime.Net} {
		for _, p := range net.Params() {
			h.Write([]byte(p.Name))
			num(uint64(p.Value.Rows))
			num(uint64(p.Value.Cols))
			floats(p.Value.Data)
		}
	}
	floats(m.Arrival.Reg.W)
	num(math.Float64bits(m.Arrival.Reg.Intercept))
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainModelGoldenDigest trains a small two-layer model with a dev
// set (dev scoring and best-epoch restore included) and pins the
// sha256 of its trained weights and of a short generated CSV trace.
// Hidden=10 puts the recurrent products on both the wide and narrow
// panel tiles plus the scalar column tail. The digest must hold under
// every kernel switch (REPRO_PROCS, REPRO_NOASM, REPRO_NOPACK), which
// scripts/check.sh exercises. Off amd64, math.Exp rounds differently,
// so the pinned bits do not apply there.
func TestTrainModelGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest pinned on amd64; math.Exp bits differ on %s", runtime.GOARCH)
	}
	cfg := synth.AzureLike()
	cfg.Days = 5
	cfg.Users = 40
	cfg.BaseRate = 1.5
	full := cfg.Generate(11)
	trainW, devW, testW := synth.StandardSplit(cfg.Days)
	m, err := TrainModel(full.Slice(trainW, 0), ModelOptions{
		Bins: survival.PaperBins(),
		Train: TrainConfig{
			Hidden: 10, Layers: 2, SeqLen: 32, BatchSize: 4,
			Epochs: 3, LR: 5e-3, Seed: 7, DevEvery: 1,
			Dev: full.Slice(devW, 0), DevOffset: devW.Start,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	w := trace.Window{Start: testW.Start, End: testW.Start + 2*trace.PeriodsPerHour}
	gen := m.Generate(rng.New(5), w)
	if len(gen.VMs) == 0 {
		t.Fatal("generated trace is empty; the trace digest would pin nothing")
	}
	if err := gen.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := weightDigest(m); got != goldenWeightsSHA256 {
		t.Errorf("trained weights sha256 = %s, want %s", got, goldenWeightsSHA256)
	}
	csvSum := sha256.Sum256(csv.Bytes())
	if got := hex.EncodeToString(csvSum[:]); got != goldenTraceSHA256 {
		t.Errorf("generated trace sha256 = %s, want %s", got, goldenTraceSHA256)
	}
}
