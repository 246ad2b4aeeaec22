package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// reportPhase prints a phase's counts and latencies and counts its
// requests as attempted.
func reportPhase(r *report, ph phaseResult) {
	failed := ph.failed()
	r.count(len(ph.results), failed)
	for _, res := range ph.results {
		if !res.ok() {
			r.notef("%s request failed: status %d: %v", ph.name, res.Status, res.Err)
			break
		}
	}
	lat := ph.latenciesMS()
	t := tailOf(lat)
	r.notef("phase %-7s sent %d ok %d failed %d rate %g req/s late.max %.3f ms p50 %.4g ms tail p%g %.4g ms (%d of n=%d beyond)",
		ph.name, len(ph.results), len(ph.results)-failed, failed, ph.rate, ms(ph.lateMax),
		percentile(lat, 50), t.P, t.Value, t.Beyond, t.N)
}

// reportMC prints the Monte-Carlo batches and counts the checked
// streams; mc_streams_per_s is taken at the fastest batch.
func reportMC(r *report, mcs []mcResult) {
	var walls []float64
	for _, mc := range mcs {
		walls = append(walls, mc.wall.Seconds())
		r.count(mc.checked, mc.mismatches)
		if mc.mismatches > 0 {
			r.problemf("%d of %d checked GenerateBatch streams differ from serial Generate", mc.mismatches, mc.checked)
		}
	}
	r.notef("offline: %d streams x %d periods through GenerateBatch in %.3f s; %d streams checked against serial Generate",
		mcStreams, mcPeriods, walls, mcs[0].checked)
	wall := minOf(walls)
	r.set("mc_streams_per_s", "streams/s", mcStreams/wall)
	r.set("core.generate_batch_s", "s", wall)
	r.set("mc.vms_per_stream.mean", "count", mcs[0].vmsPerStream)
}

// checkOracle runs the byte-for-byte check and counts mismatches as
// failed requests (they were already counted as attempted).
func checkOracle(r *report, sm servedModel, phases ...phaseResult) (oracleOut, error) {
	orc, err := oracleCheck(sm, phases...)
	if err != nil {
		return orc, err
	}
	r.count(0, orc.mismatches)
	r.notef("oracle: %d served bodies checked against serial Generate, %d mismatched", orc.checked, orc.mismatches)
	if orc.mismatches > 0 {
		r.problemf("%d of %d served bodies differ from serial Generate", orc.mismatches, orc.checked)
	}
	if orc.checked == 0 {
		r.problemf("no served body was checked")
	}
	return orc, nil
}

// reportTraining prints the served model's training figures; train_s
// is the fastest training.
func reportTraining(r *report, sm servedModel, trains []float64) {
	r.set("train_s", "s", minOf(trains))
	r.set("flavor_dev_nll", "nats", sm.flavorDev)
	r.set("lifetime_dev_loss", "nats", sm.lifetimeDev)
}

// untracedRun is the end-to-end run: rounds of set-up, the light,
// heavy and closed phases against a server with request tracing off,
// and the offline Monte-Carlo batch. Latencies are pooled over rounds.
// Set-up time and memory are medians over rounds. Training, closed-loop
// chunks and Monte-Carlo batches repeat identical work, and a shared
// host only ever slows such work down, so they report the fastest
// repeat.
func untracedRun(e *env, wl serveWorkload, seed int64, seconds float64, r *report) error {
	var sm servedModel
	var s *schedules
	var setups, trains, rss, capacity []float64
	var mcs []mcResult
	light, heavy, closed := phaseResult{name: "light"}, phaseResult{name: "heavy"}, phaseResult{name: "closed"}
	for k := 0; k < rounds; k++ {
		next, p, d, err := setupServer(e, 0)
		if err != nil {
			return err
		}
		if k > 0 && next.digest != sm.digest {
			r.problemf("set-up %d trained a model with different bytes", k)
		}
		sm = next
		setups = append(setups, d.Seconds())
		trains = append(trains, sm.train.Seconds())
		if s == nil {
			s = newSchedules(wl, seed, seconds, e.conns, sm.historyEnd)
		}
		// One Monte-Carlo batch before the round's phases and one after,
		// so the batches too are spread over the run.
		mc, err := runMC(sm, seed, k == 0)
		if err != nil {
			p.stop()
			return err
		}
		mcs = append(mcs, mc)
		lg := newLoadgen(p.base, e.conns)
		reportPhase(r, warmUp(lg, s))
		capacity = append(capacity, runRound(lg, s, wl, k, &light, &heavy, &closed)...)
		lg.close()
		hwm, err := p.peakRSSMB()
		p.stop()
		if err != nil {
			return err
		}
		rss = append(rss, hwm)
		if mc, err = runMC(sm, seed, false); err != nil {
			return err
		}
		mcs = append(mcs, mc)
	}
	r.count(rounds, 0)
	r.notef("set-ups %.3f s; TrainModel %.3f s; server VmHWM %.2f MB", setups, trains, rss)
	r.set("setup_s", "s", median(setups))
	reportTraining(r, sm, trains)
	for _, ph := range []phaseResult{light, heavy, closed} {
		reportPhase(r, ph)
	}
	for _, ph := range []phaseResult{light, heavy} {
		lat := ph.latenciesMS()
		r.set(ph.name+".p50_ms", "ms", percentile(lat, 50))
		r.set(ph.name+".tail_ms", "ms", tailOf(lat).Value)
	}
	r.notef("closed loop: %d completions over %.3f s on %d connections; per chunk %.4g req/s",
		len(closed.results)-closed.failed(), closed.elapsed.Seconds(), e.conns, capacity)
	r.set("capacity_rps", "req/s", maxOf(capacity))
	r.set("peak_rss_mb", "MB", median(rss))
	reportMC(r, mcs)
	_, err := checkOracle(r, sm, light, heavy, closed)
	return err
}

// tracedRun is the per-layer run. It replays the heavy schedule twice,
// against a server with request tracing off and one with a trace ring
// large enough for every request, reads the spans and counters the
// traced server serves, then times the layers' public functions at the
// shapes the run used.
func tracedRun(e *env, wl serveWorkload, seed int64, seconds float64, r *report) error {
	sm, p, d, err := setupServer(e, 0)
	if err != nil {
		return err
	}
	defer p.stop()
	r.count(1, 0)
	r.notef("set-up %.3f s; TrainModel %.3f s", d.Seconds(), sm.train.Seconds())
	s := newSchedules(wl, seed, seconds, e.conns, sm.historyEnd)

	// replay warms a server up and replays every round's heavy schedule
	// on it.
	replay := func(p *tracedProc, name string) phaseResult {
		lg := newLoadgen(p.base, e.conns)
		defer lg.close()
		reportPhase(r, warmUp(lg, s))
		ph := phaseResult{name: name}
		for k := 0; k < rounds; k++ {
			runRound(lg, s, wl, k, nil, &ph, nil)
		}
		reportPhase(r, ph)
		return ph
	}
	plain := replay(p, "heavy")
	p.stop()

	sent := 0
	for _, h := range s.heavy {
		sent += len(h)
	}
	p, err = e.start(sent + ringSlack)
	if err != nil {
		return err
	}
	defer p.stop()
	traced := replay(p, "heavy-traced")
	traces, err := p.traces()
	if err != nil {
		return err
	}
	counters, err := p.metrics()
	if err != nil {
		return err
	}
	p.stop()

	orc, err := checkOracle(r, sm, plain, traced)
	if err != nil {
		return err
	}
	r.set("loadgen.late_ms.max", "ms", ms(max(plain.lateMax, traced.lateMax)))
	r.set("loadgen.heavy.sent", "count", float64(sent))
	r.notef("loadgen.heavy.ok %d loadgen.heavy.failed %d (traced replay)", len(traced.results)-traced.failed(), traced.failed())
	plainP50 := percentile(plain.latenciesMS(), 50)
	tracedP50 := percentile(traced.latenciesMS(), 50)
	r.notef("heavy.p50_ms untraced %.4g traced %.4g", plainP50, tracedP50)
	r.set("trace.overhead_ratio", "ratio", tracedP50/plainP50)

	if err := spanMetrics(r, sm, traced, traces); err != nil {
		return err
	}
	r.set("server.requests", "count", float64(counters.Metrics.Counters["http.requests.generate"]))
	r.notef("server.errors %d", counters.Metrics.Counters["http.errors.generate"])
	r.set("mem.heap_inuse_mb", "MB", float64(counters.Mem.HeapInUseBytes)/(1<<20))
	r.set("gc.count", "count", float64(counters.Mem.GCCount))
	kernelMetrics(r, sm, orc)

	mc, err := runMC(sm, seed, true)
	if err != nil {
		return err
	}
	reportMC(r, []mcResult{mc})
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	r.set("mc.peak_rss_mb", "MB", rss)
	return trainingMetrics(r, sm)
}

// spanMetrics derives the server, network, engine and encode metrics
// from the traced replay's client records and the server's spans.
func spanMetrics(r *report, sm servedModel, ph phaseResult, traces []rtrace.Finished) error {
	byID := make(map[string]rtrace.Finished, len(traces))
	for _, f := range traces {
		byID[f.ID] = f
	}
	var server, self, wait, queue, coalesce, decode, encode []float64
	var decodeIV []interval
	var decodeSum time.Duration
	var rounds, vms, bytes int64
	for _, res := range ph.results {
		if !res.ok() {
			continue
		}
		f, ok := byID[res.TraceID]
		if !ok {
			return fmt.Errorf("trace %q of a heavy request is missing from /debug/traces", res.TraceID)
		}
		dur := time.Duration(f.DurNS)
		var children time.Duration
		for _, s := range f.Spans {
			children += time.Duration(s.DurNS)
		}
		server = append(server, ms(dur))
		self = append(self, ms(dur-children))
		wait = append(wait, ms(res.latency()-dur))
		q, _ := spanSum(f, "queue")
		c, _ := spanSum(f, "coalesce")
		dd, steps := spanSum(f, "decode")
		en, _ := spanSum(f, "encode")
		queue = append(queue, ms(q))
		coalesce = append(coalesce, ms(c))
		decode = append(decode, ms(dd))
		encode = append(encode, ms(en))
		decodeSum += dd
		rounds += steps
		vms += int64(res.VMs)
		bytes += int64(res.Bytes)
		for _, s := range f.Spans {
			if s.Name == "decode" {
				lo := f.Start.Add(time.Duration(s.StartNS))
				decodeIV = append(decodeIV, interval{lo, lo.Add(time.Duration(s.DurNS))})
			}
		}
	}
	n := float64(len(server))
	if n == 0 || rounds == 0 {
		return fmt.Errorf("traced replay produced no decode spans")
	}
	r.set("server.time_ms.p50", "ms", median(server))
	r.set("server.self_ms.p50", "ms", median(self))
	r.set("net.wait_ms.p50", "ms", median(wait))
	r.set("engine.queue_ms.p50", "ms", median(queue))
	r.set("engine.coalesce_ms.p50", "ms", median(coalesce))
	r.set("engine.decode_ms.p50", "ms", median(decode))
	r.set("encode.ms.p50", "ms", median(encode))
	r.set("engine.rounds_per_req.mean", "count", float64(rounds)/n)
	r.set("engine.round_us.mean", "us", float64(decodeSum)/1e3/float64(rounds))
	overlap := meanOverlap(decodeIV)
	r.set("engine.streams_per_round.mean", "count", overlap)
	r.set("encode.bytes_per_req.mean", "B", float64(bytes)/n)
	r.set("trace.vms_per_req.mean", "count", float64(vms)/n)

	// Replay the fleet steps at the served model's shapes and compare
	// the rounds' step time with the decode time: what is left is
	// sampling, trace assembly and admission. A round steps each stream
	// once, through the flavor net (phi of the stream-steps) or the
	// lifetime net (one step per VM); with two streams a round costs a
	// two-row step of one net or a one-row step of each.
	steps := fleetSteps(r, sm.model)
	phi := 1 - float64(vms)/float64(rounds)
	c := min(max(overlap, 1), 2)
	single := phi*steps.f1 + (1-phi)*steps.l1
	double := phi*phi*steps.f2 + (1-phi)*(1-phi)*steps.l2 + 2*phi*(1-phi)*(steps.f1+steps.l1)
	roundCost := (2-c)*single + (c-1)*double
	r.notef("decode gap model: flavor share %.3f, streams per round %.3f, replayed round %.3f us", phi, c, roundCost)
	r.set("engine.decode_gap_ratio", "ratio", 1-float64(rounds)*roundCost*1e3/float64(decodeSum))
	return nil
}

// stepTimes are replayed fleet step times in microseconds.
type stepTimes struct{ f1, f2, l1, l2 float64 }

func fleetSteps(r *report, m *core.Model) stepTimes {
	pk := m.PreparePacked()
	period := m.Flavor.HistoryDays * trace.PeriodsPerDay
	var st stepTimes
	for _, rows := range []int{1, 2, 64} {
		f := fleetStep(m.Flavor.Net, pk.Flavor, rows, flavorInputs(m, period)) / 1e3
		l := fleetStep(m.Lifetime.Net, pk.Lifetime, rows, lifetimeInputs(m, period)) / 1e3
		r.set(fmt.Sprintf("nn.flavor_step_us.r%d", rows), "us", f)
		r.set(fmt.Sprintf("nn.lifetime_step_us.r%d", rows), "us", l)
		switch rows {
		case 1:
			st.f1, st.l1 = f, l
		case 2:
			st.f2, st.l2 = f, l
		}
	}
	return st
}

// kernelMetrics times the GEMM, activation, sampling, fidelity and
// serial-decode layers at the served model's shapes.
func kernelMetrics(r *report, sm servedModel, orc oracleOut) {
	h := sm.model.Flavor.Net.Cfg.HiddenDim
	for _, rows := range []int{2, 64} {
		s := gemmShape{rows: rows, h: h}
		r.set(fmt.Sprintf("mat.gate_gemm_us.r%d", rows), "us", gateGEMM(s)/1e3)
		r.set(fmt.Sprintf("mat.gate_gemm_flops.r%d", rows), "flop", s.flops())
		r.set(fmt.Sprintf("mat.gate_gemm_bytes.r%d", rows), "B", s.bytes())
	}
	r.notef("mat.gate_gemm_flops and mat.gate_gemm_bytes are computed from the [r x %d] x [%d x %d] shape, not measured", h, h, 4*h)
	exp := vecKernel(4*h, func(x, out []float64) { mat.ExpSlice(out, x) })
	r.set("mat.exp_ns_per_elem", "ns", exp/float64(4*h))
	r.set("nn.softmax_ns", "ns", vecKernel(sm.model.Flavor.K+1, nn.SoftmaxIntoVec))
	r.set("nn.sigmoid_ns", "ns", vecKernel(sm.model.Lifetime.Bins.J(), nn.SigmoidIntoVec))
	r.set("fidelity.observe_us.mean", "us", observeReplay(sm.model, orc.traces)/1e3)
	r.set("core.generate_ms", "ms", median(orc.generate))
}

// The minibatch replay runs at the shape of core's TrainConfig
// defaults, which the served model's training leaves in place.
const (
	replaySeqLen = 96
	replayBatch  = 8
	replayLR     = 3e-3
)

// trainingMetrics times the served model's training stages as separate
// calls and replays one flavor-net minibatch at its training shape.
func trainingMetrics(r *report, sm servedModel) error {
	st, err := timeStages(sm)
	if err != nil {
		return err
	}
	if !st.sameModel {
		r.problemf("the three training stages called separately built a different model than TrainModel")
	}
	r.set("core.train_arrival_s", "s", st.arrival.Seconds())
	r.set("core.train_flavor_s", "s", st.flavor.Seconds())
	r.set("core.train_lifetime_s", "s", st.lifetime.Seconds())
	sum := st.arrival + st.flavor + st.lifetime
	r.notef("training stages sum to %.3f s against TrainModel %.3f s", sum.Seconds(), sm.train.Seconds())
	r.set("train.stage_sum_ratio", "ratio", sum.Seconds()/sm.train.Seconds())
	// train_s, flavor_dev_nll and lifetime_dev_loss of this run.
	reportTraining(r, sm, []float64{sm.train.Seconds()})

	var flavorEpochs, lifetimeEpochs []float64
	flavorSteps := 0
	for _, ev := range st.epochs {
		switch ev.Model {
		case core.ObsFlavorLSTM:
			flavorEpochs = append(flavorEpochs, ev.WallMS)
			flavorSteps = ev.Steps
		case core.ObsLifetimeHazard:
			lifetimeEpochs = append(lifetimeEpochs, ev.WallMS)
		}
	}
	epochMS := median(flavorEpochs)
	r.set("train.flavor_epoch_ms.p50", "ms", epochMS)
	r.set("train.lifetime_epoch_ms.p50", "ms", median(lifetimeEpochs))

	m := sm.model
	mb := minibatchReplay(m.Flavor.Net.Cfg, replaySeqLen, replayBatch, replayLR, flavorInputs(m, 0))
	r.set("nn.lstm_forward_ms", "ms", mb.forward/1e6)
	r.set("nn.lstm_backward_ms", "ms", mb.backward/1e6)
	r.set("nn.adam_step_ms", "ms", mb.adam/1e6)
	windows := trainWindows(flavorSteps, replaySeqLen, replayBatch)
	step := (mb.forward + mb.backward + mb.adam) / 1e6
	r.notef("flavor epoch: %d tokens in %d minibatches of [%d x %d]; replayed minibatch %.3f ms",
		flavorSteps, windows, replayBatch, replaySeqLen, step)
	r.set("train.gap_ratio", "ratio", 1-float64(windows)*step/epochMS)
	return nil
}
