package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The served model is trained with cmd/traced's default scenario
// (azure-like, 9 days, hidden 24, training seed 1) at a reduced epoch
// count, written with MarshalBinary and served with traced -model. The
// same model runs the offline Monte-Carlo batch, the capacity-planning
// use of the generator (Figures 7-9): TrainModel, then GenerateBatch.
const (
	servedDays   = 9
	servedHidden = 24
	servedSeed   = 1
	// servedEpochs replaces traced's 40 epochs so a set-up takes seconds;
	// dev selection still runs, at the last epoch.
	servedEpochs = 4
	// mcStreams is the Monte-Carlo batch: the only decode in the
	// benchmark where the fleet steps 64 rows at once.
	mcStreams = 64
	// mcPeriods is the Monte-Carlo window: the first 8 hours after the
	// history, short enough to decode once per round.
	mcPeriods = trace.PeriodsPerDay / 3
	// mcOracleStreams are checked byte for byte against serial decode.
	mcOracleStreams = 2
)

// servedData is the served model's training input: traced's 85/15
// train/dev split of the synthesized history.
type servedData struct {
	train, dev *trace.Trace
	devStart   int
	catalog    *trace.FlavorSet
}

func synthServed() servedData {
	cfg := synth.AzureLike()
	cfg.Days = servedDays
	history := cfg.Generate(servedSeed)
	devStart := history.Periods * 85 / 100
	return servedData{
		train:    history.Slice(trace.Window{Start: 0, End: devStart}, 0),
		dev:      history.Slice(trace.Window{Start: devStart, End: history.Periods}, 0),
		devStart: devStart,
		catalog:  cfg.Flavors,
	}
}

// trainConfig is the TrainConfig traced builds from its default flags,
// with the benchmark's epoch count and an epoch sink.
func (d servedData) trainConfig(sink obs.EpochSink) core.TrainConfig {
	return core.TrainConfig{
		Hidden: servedHidden, Epochs: servedEpochs, Seed: servedSeed,
		Dev: d.dev, DevOffset: d.devStart, Obs: sink,
	}
}

// servedModel is a trained served model and what its training measured.
type servedModel struct {
	model       *core.Model
	catalog     *trace.FlavorSet
	digest      [32]byte
	historyEnd  int
	train       time.Duration // core.TrainModel wall time
	flavorDev   float64       // lowest flavor_lstm dev loss
	lifetimeDev float64       // lowest lifetime_hazard dev loss
}

// trainServed synthesizes the history and trains the served model,
// returning it with its serialized bytes.
func trainServed() (servedModel, []byte, error) {
	d := synthServed()
	var events []obs.EpochEvent
	tc := d.trainConfig(obs.SinkFunc(func(e obs.EpochEvent) { events = append(events, e) }))
	start := time.Now()
	m, err := core.TrainModel(d.train, core.ModelOptions{Bins: survival.PaperBins(), Train: tc})
	if err != nil {
		return servedModel{}, nil, fmt.Errorf("train served model: %w", err)
	}
	elapsed := time.Since(start)
	blob, err := m.MarshalBinary()
	if err != nil {
		return servedModel{}, nil, fmt.Errorf("marshal served model: %w", err)
	}
	sm := servedModel{
		model:       m,
		catalog:     d.catalog,
		digest:      sha256.Sum256(blob),
		historyEnd:  m.Flavor.HistoryDays * trace.PeriodsPerDay,
		train:       elapsed,
		flavorDev:   bestDev(events, core.ObsFlavorLSTM),
		lifetimeDev: bestDev(events, core.ObsLifetimeHazard),
	}
	if sm.flavorDev == 0 || sm.lifetimeDev == 0 {
		return sm, nil, fmt.Errorf("training reported no dev loss (flavor %v, lifetime %v)", sm.flavorDev, sm.lifetimeDev)
	}
	return sm, blob, nil
}

// bestDev is the lowest dev loss a training loop reported: the weights
// dev selection keeps.
func bestDev(events []obs.EpochEvent, model string) float64 {
	best := 0.0
	for _, e := range events {
		if e.Model == model && e.HasDev && (best == 0 || e.Dev < best) {
			best = e.Dev
		}
	}
	return best
}

// mcResult is one Monte-Carlo batch.
type mcResult struct {
	wall         time.Duration
	vmsPerStream float64
	checked      int
	mismatches   int
}

// mcStreamsFor derives the Monte-Carlo streams from the workload seed;
// calling it twice yields identical, independent RNGs.
func mcStreamsFor(seed int64) []*rng.RNG {
	g := rng.New(seed)
	gs := make([]*rng.RNG, mcStreams)
	for i := range gs {
		gs[i] = g.Split()
	}
	return gs
}

// runMC decodes the Monte-Carlo batch through GenerateBatch. With check
// set it compares a seed-chosen sample of its streams with serial
// decode.
func runMC(sm servedModel, seed int64, check bool) (mcResult, error) {
	var res mcResult
	w := trace.Window{Start: sm.historyEnd, End: sm.historyEnd + mcPeriods}
	start := time.Now()
	trs := sm.model.GenerateBatch(mcStreamsFor(seed), w)
	res.wall = time.Since(start)
	vms := 0
	for _, tr := range trs {
		vms += len(tr.VMs)
	}
	res.vmsPerStream = float64(vms) / float64(len(trs))
	if !check {
		return res, nil
	}
	serial := mcStreamsFor(seed)
	for _, i := range oracleSample(rng.New(seed^0x6d63), mcStreams, mcOracleStreams) {
		want, err := csvBytes(core.WithCatalog(sm.model.Generate(serial[i], w), sm.catalog))
		if err != nil {
			return res, err
		}
		got, err := csvBytes(core.WithCatalog(trs[i], sm.catalog))
		if err != nil {
			return res, err
		}
		res.checked++
		if !bytes.Equal(got, want) {
			res.mismatches++
		}
	}
	return res, nil
}

// stageTimes are the three training stages called separately.
type stageTimes struct {
	arrival, flavor, lifetime time.Duration
	epochs                    []obs.EpochEvent
	// sameModel reports whether the model assembled from the stage calls
	// serializes to the same bytes as TrainModel's.
	sameModel bool
}

// timeStages runs the served model's three training stages as separate
// calls with the options TrainModel uses.
func timeStages(want servedModel) (stageTimes, error) {
	var st stageTimes
	d := synthServed()
	tc := d.trainConfig(obs.SinkFunc(func(e obs.EpochEvent) { st.epochs = append(st.epochs, e) }))
	// TrainModel's arrival defaults: batch arrivals with DOH features
	// and geometric DOH sampling at p = 1/7.
	arrOpt := core.ArrivalOptions{Kind: core.BatchArrivals, UseDOH: true, Obs: tc.Obs}
	arrOpt.DOH.Mode = features.DOHGeometric
	arrOpt.DOH.GeomP = 1.0 / 7.0

	start := time.Now()
	arrival, err := core.TrainArrival(d.train, arrOpt)
	if err != nil {
		return st, fmt.Errorf("train arrival stage: %w", err)
	}
	st.arrival = time.Since(start)
	start = time.Now()
	flavor := core.TrainFlavor(d.train, tc)
	st.flavor = time.Since(start)
	start = time.Now()
	lifetime := core.TrainLifetime(d.train, survival.PaperBins(), tc)
	st.lifetime = time.Since(start)

	got := &core.Model{Arrival: arrival, Flavor: flavor, Lifetime: lifetime, Interp: want.model.Interp}
	blob, err := got.MarshalBinary()
	if err != nil {
		return st, err
	}
	st.sameModel = sha256.Sum256(blob) == want.digest
	return st, nil
}

func csvBytes(tr *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	return buf.Bytes(), nil
}
