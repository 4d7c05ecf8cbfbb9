package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cluster"
	"jitckpt/internal/core"
	"jitckpt/internal/experiments"
	"jitckpt/internal/failure"
	"jitckpt/internal/peerckpt"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
	"jitckpt/internal/workload"
)

// workloadNames lists the benchmark's workloads in presentation order.
var workloadNames = []string{"fleet", "recovery", "transparent"}

const (
	// chaosIters is the useful-minibatch count of every recovery and
	// transparent cell: the chaos suite's length, at which the
	// transparent network-error divergence is known to show.
	chaosIters = 18
	// writeFaultP is the per-write storage fault probability applied to
	// every disk and peer-shelter write (the chaos suite's value).
	writeFaultP = 0.12
	// recoveryReps is how many fault pairs each recovery geometry runs
	// per pass: 14 geometries × 8 = 112 cells.
	recoveryReps = 8
	// fleetSpec, fleetNodes and fleetIters are the fleet cell: the
	// 500-tenant headline cell (250xpc_disk,150xjit+elastic,100xuserjit
	// on 1100 nodes) at two-fifths size. The full cell's host time moved
	// from run to run with machine state the speed probe does not track
	// (run medians spread 10.5%, against 3.8% at this size).
	fleetSpec  = "100xpc_disk,60xjit+elastic,40xuserjit"
	fleetNodes = 440
	fleetIters = 25
	// scenarioSeed draws the recovery and transparent fault scenarios
	// (fault ranks and phases, storage write-fault streams). It is fixed,
	// not taken from the benchmark seed: whether a cell hits a restart
	// loop or a long recovery decides how much host work it costs, so
	// per-seed fault draws would make the work per pass vary by seed.
	scenarioSeed = 1
)

// cell is one core.Run simulation with the oracle its loss must match.
type cell struct {
	label  string
	cfg    core.JobConfig
	oracle map[int]float32
	// faults counts the injected faults (node repairs excluded).
	faults int
	// chaos seeds the disk and shelter write-fault streams; the hooks
	// are stateful, so every run draws fresh ones (nil = no write faults).
	chaos *[2]int64
}

// config returns the cell's job configuration with fresh write-fault
// hooks.
func (c *cell) config() core.JobConfig {
	cfg := c.cfg
	if c.chaos != nil {
		cfg.Chaos = &core.ChaosConfig{
			DiskChaos:    checkpoint.RandomChaos(rand.New(rand.NewSource(c.chaos[0])), writeFaultP),
			ShelterChaos: checkpoint.RandomChaos(rand.New(rand.NewSource(c.chaos[1])), writeFaultP),
		}
	}
	return cfg
}

// plan is one workload's generated inputs: either independent cells run
// one after another (recovery, transparent) or one shared fleet
// simulation.
type plan struct {
	cells []cell
	// stream attaches one live tracestream sink per pass to every cell
	// (the jitsim -serve path) and checks its per-job finals.
	stream bool
	fleet  *cluster.Config
	// fleetOracle is the failure-free loss every fleet tenant must match.
	fleetOracle map[int]float32
}

// newPlan generates the named workload's inputs from seed and runs the
// failure-free oracle simulations its correctness gate compares against.
func newPlan(name string, seed int64) (*plan, error) {
	switch name {
	case "fleet":
		return fleetPlan(seed)
	case "recovery":
		return recoveryPlan(seed)
	case "transparent":
		return transparentPlan(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// oracle runs the failure-free reference job for wl and returns its loss
// trajectory.
func oracle(wl workload.Workload, iters int, seed int64) (map[int]float32, error) {
	res, err := core.Run(core.JobConfig{WL: wl, Policy: core.PolicyNone, Iters: iters, Seed: seed, CollectLoss: true})
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", wl.Name, err)
	}
	if !res.Completed {
		return nil, fmt.Errorf("oracle %s: incomplete", wl.Name)
	}
	return res.Loss, nil
}

// fleetPlan is the 200-tenant failure-free cell: the seed shuffles the
// admission order, staggers submissions over the first four minibatches,
// and seeds every tenant's data.
func fleetPlan(seed int64) (*plan, error) {
	jobs, err := cluster.ParseJobsSpec(fleetSpec, experiments.FleetPolicies(), fleetIters)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	wl := cluster.FleetWorkload()
	for i := range jobs {
		jobs[i].StartAt = vclock.Time(rng.Int63n(int64(4 * wl.Minibatch)))
		jobs[i].Config.Seed = seed
		jobs[i].Config.CollectLoss = true
	}
	ref, err := oracle(wl, fleetIters, seed)
	if err != nil {
		return nil, err
	}
	return &plan{
		fleet: &cluster.Config{
			Nodes: fleetNodes, PerNode: 2, RackSize: 4, Seed: seed,
			Horizon: 4 * vclock.Minute, Jobs: jobs,
		},
		fleetOracle: ref,
	}, nil
}

// pipelineWorkload is table 14's geometry: eight single-GPU nodes running
// a 2-way data-parallel, 4-stage pipeline, the smallest on which the
// pipeline-stage redundancy tier and an RS(4,2) stripe over four racks
// both run.
func pipelineWorkload() workload.Workload {
	return workload.Workload{
		Name: "pipeline-2x4", GPU: "A100-80GB", ParamsB: 0.004,
		Nodes: 8, PerNode: 1,
		Topo: train.Topology{D: 2, P: 4, T: 1}, Framework: "perfbench",
		Minibatch:  50 * vclock.Millisecond,
		CkptTarget: vclock.Seconds(0.5), RestoreTarget: vclock.Seconds(1),
		NCCLInitBase: 200 * vclock.Millisecond, NCCLInitPerRank: 5 * vclock.Millisecond,
		Teardown: 100 * vclock.Millisecond, CRIU: vclock.Second,
		Layers: 4, Hidden: 8,
	}
}

// recoveryKinds are the fault kinds of failure.DefaultMix that inject a
// fault (node repairs only follow one).
var recoveryKinds = []failure.Kind{
	failure.GPUHard, failure.GPUSticky, failure.DriverCorrupt, failure.NetworkHang,
	failure.NetworkError, failure.NodeDown, failure.StorageFault,
}

// transparentKinds are the paper's transient (§4.2) and hard (§4.3) fault
// kinds.
var transparentKinds = []failure.Kind{
	failure.GPUSticky, failure.DriverCorrupt, failure.NetworkHang, failure.NetworkError,
	failure.GPUHard, failure.NodeDown,
}

// injections places two faults of the given kinds at one-third and
// two-thirds of the run; rng draws where (rank) and when (fraction of the
// minibatch) each lands. Faults never hit rank 0, and whole-node faults
// hit the last node, like the chaos suite's.
func injections(rng *rand.Rand, wl workload.Workload, iters int, kinds [2]failure.Kind) []core.IterInjection {
	var out []core.IterInjection
	for i, at := range []int{iters / 3, 2 * iters / 3} {
		rank := 1 + rng.Intn(wl.Topo.World()-1)
		if kinds[i] == failure.NodeDown {
			rank = wl.Topo.World() - 1 - rng.Intn(wl.PerNode)
		}
		out = append(out, core.IterInjection{Iter: at, Frac: 0.1 + 0.8*rng.Float64(), Rank: rank, Kind: kinds[i]})
	}
	return out
}

func countFaults(inj []core.IterInjection) int {
	n := 0
	for _, in := range inj {
		if in.Kind != failure.NodeRepaired {
			n++
		}
	}
	return n
}

// recoveryPlan runs every registry policy except none and transparent on
// a geometry it supports, each against recoveryReps fault pairs plus
// storage write faults. The seed sets every job's data and
// initialization.
func recoveryPlan(seed int64) (*plan, error) {
	tiny := experiments.ChaosWorkload()
	pipe := pipelineWorkload()
	type geometry struct {
		wl     workload.Workload
		policy core.Policy
		peer   *peerckpt.Params
		rack   int
		spares int
	}
	var geos []geometry
	for _, pi := range core.Policies() {
		switch pi.Policy {
		case core.PolicyNone, core.PolicyTransparentJIT:
		case core.PolicyPipeFree:
			geos = append(geos, geometry{pipe, pi.Policy, nil, 0, pipe.Nodes})
		default:
			geos = append(geos, geometry{tiny, pi.Policy, nil, 0, 4})
		}
	}
	// The erasure-coded shelter: RS(4,2) over four 2-node racks.
	geos = append(geos, geometry{pipe, core.PolicyPeerShelter,
		&peerckpt.Params{DataShards: 4, ParityShards: 2}, 2, pipe.Nodes})

	oracles := map[string]map[int]float32{}
	for _, wl := range []workload.Workload{tiny, pipe} {
		ref, err := oracle(wl, chaosIters, seed)
		if err != nil {
			return nil, err
		}
		oracles[wl.Name] = ref
	}
	rng := rand.New(rand.NewSource(scenarioSeed))
	pl := &plan{stream: true}
	nk := len(recoveryKinds)
	for rep := 0; rep < recoveryReps; rep++ {
		for gi, g := range geos {
			kinds := [2]failure.Kind{recoveryKinds[(rep+gi)%nk], recoveryKinds[(3*rep+gi+1)%nk]}
			inj := injections(rng, g.wl, chaosIters, kinds)
			cfg := core.JobConfig{
				WL: g.wl, Policy: g.policy, Iters: chaosIters, Seed: seed, CollectLoss: true,
				HangTimeout: 2 * vclock.Second, SpareNodes: g.spares,
				IterFailures: inj,
				Peer:         g.peer, RackSize: g.rack,
			}
			if _, periodic := g.policy.PeriodicKind(); periodic || g.policy.UsesMultiStep() {
				cfg.CkptInterval = 4 * g.wl.Minibatch
			}
			label := fmt.Sprintf("%v/%s/%v+%v", g.policy, g.wl.Name, kinds[0], kinds[1])
			if g.peer != nil {
				label = fmt.Sprintf("%v-RS(%d,%d)/%s/%v+%v", g.policy, g.peer.DataShards, g.peer.ParityShards,
					g.wl.Name, kinds[0], kinds[1])
			}
			pl.cells = append(pl.cells, cell{label: label, cfg: cfg, oracle: oracles[g.wl.Name],
				faults: countFaults(inj), chaos: &[2]int64{rng.Int63(), rng.Int63()}})
		}
	}
	return pl, nil
}

// chaosSuiteCell reproduces one TransparentJIT cell of the chaos suite
// (experiments.RunChaos) exactly: its fault draw, storage chaos and data
// seed depend only on the chaos seed, never on the benchmark seed.
func chaosSuiteCell(wl workload.Workload, chaosSeed int64, ref map[int]float32) cell {
	rng := rand.New(rand.NewSource(chaosSeed * 131))
	mix := failure.DefaultMix()
	kinds := make([]failure.Kind, 0, len(mix))
	var total float64
	for k, w := range mix {
		kinds = append(kinds, k)
		total += w
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var inj []core.IterInjection
	hard := 0
	for _, at := range []int{chaosIters / 3, 2 * chaosIters / 3} {
		kind := kinds[len(kinds)-1]
		x := rng.Float64() * total
		for _, k := range kinds {
			if x -= mix[k]; x < 0 {
				kind = k
				break
			}
		}
		switch kind {
		case failure.GPUHard, failure.NodeDown, failure.RackDown:
			hard++
			if hard > 2 {
				kind = failure.GPUSticky
			}
		}
		rank := 1 + rng.Intn(wl.Topo.World()-1)
		if kind == failure.NodeDown || kind == failure.RackDown {
			rank = wl.Topo.World() - 1 - rng.Intn(wl.PerNode)
		}
		inj = append(inj, core.IterInjection{Iter: at, Frac: 0.1 + 0.8*rng.Float64(), Rank: rank, Kind: kind})
	}
	return cell{
		label: fmt.Sprintf("TransparentJIT/chaos-seed-%d/%v+%v", chaosSeed, inj[0].Kind, inj[1].Kind),
		cfg: core.JobConfig{
			WL: wl, Policy: core.PolicyTransparentJIT, Iters: chaosIters, Seed: 1, CollectLoss: true,
			HangTimeout: 2 * vclock.Second, SpareNodes: 4, IterFailures: inj,
		},
		oracle: ref,
		faults: countFaults(inj),
		chaos:  &[2]int64{chaosSeed * 17, chaosSeed * 29},
	}
}

// transparentPlan is PolicyTransparentJIT steady training on the chaos
// job: the chaos suite's cells for chaos seeds 13 and 47 (both draw a
// network-error first fault), then twelve cells that pair every transient
// and hard kind as first and second fault, with §4.1 replay validation at
// iteration 2. The seed sets the twelve cells' data and initialization.
func transparentPlan(seed int64) (*plan, error) {
	wl := experiments.ChaosWorkload()
	suiteRef, err := oracle(wl, chaosIters, 1)
	if err != nil {
		return nil, err
	}
	ref, err := oracle(wl, chaosIters, seed)
	if err != nil {
		return nil, err
	}
	pl := &plan{}
	for _, cs := range []int64{13, 47} {
		pl.cells = append(pl.cells, chaosSuiteCell(wl, cs, suiteRef))
	}
	rng := rand.New(rand.NewSource(scenarioSeed))
	nk := len(transparentKinds)
	for i := 0; i < 2*nk; i++ {
		kinds := [2]failure.Kind{transparentKinds[i%nk], transparentKinds[(i+1+i/nk)%nk]}
		inj := injections(rng, wl, chaosIters, kinds)
		pl.cells = append(pl.cells, cell{
			label: fmt.Sprintf("TransparentJIT/%v+%v", kinds[0], kinds[1]),
			cfg: core.JobConfig{
				WL: wl, Policy: core.PolicyTransparentJIT, Iters: chaosIters, Seed: seed, CollectLoss: true,
				HangTimeout: 2 * vclock.Second, SpareNodes: 4, IterFailures: inj,
				ValidateAt: 2,
			},
			oracle: ref,
			faults: countFaults(inj),
			chaos:  &[2]int64{rng.Int63(), rng.Int63()},
		})
	}
	return pl, nil
}

// fingerprint renders the generated inputs (not the oracles), so tests
// can tell whether two seeds produced different workloads.
func (pl *plan) fingerprint() string {
	var b strings.Builder
	for _, c := range pl.cells {
		fmt.Fprintf(&b, "%s seed=%d chaos=%v %+v\n", c.label, c.cfg.Seed, *c.chaos, c.cfg.IterFailures)
	}
	if pl.fleet != nil {
		fmt.Fprintf(&b, "fleet seed=%d\n", pl.fleet.Seed)
		for _, j := range pl.fleet.Jobs {
			fmt.Fprintf(&b, "%s@%d seed=%d\n", j.Name, j.StartAt, j.Config.Seed)
		}
	}
	return b.String()
}

// simSummary aggregates a pass's simulated outcome. Every field is a
// deterministic function of the inputs, so two passes over one plan must
// produce equal summaries.
type simSummary struct {
	Cells    int
	Failures []string // cells that failed the correctness gate, with the reason
	Faults   int
	// GPUSimNS is Σ GPUs × simulated wall time.
	GPUSimNS int64
	// UsefulGPU and WastedGPU are GPU-weighted virtual nanoseconds.
	UsefulGPU, WastedGPU int64
	// The waste buckets, summed over jobs (not GPU-weighted).
	CkptStall, RecoveryFixed, Redo, Waiting int64
	// RedoMinibatches is Σ redo time / steady minibatch time.
	RedoMinibatches    float64
	Latencies          []int64
	Events, Dispatches uint64
	CkptReadBytes      int64
	Checkpoints        int
	PeerOffers         int
	PeerCarried        int // offers neither skipped nor aborted
	PeerCommits        int
	PipeRebuilds       int
	MultiStepCommits   int
	Incarnations       int
	ValidationFailures int
	Preemptions        int
	StreamDropped      uint64
}

// addJob folds one job's result into the summary.
func (s *simSummary) addJob(res *core.RunResult) {
	a := res.Accounting
	n := int64(a.N)
	s.GPUSimNS += n * int64(res.WallTime)
	s.UsefulGPU += n * int64(a.Useful)
	s.WastedGPU += n * int64(a.Wasted())
	s.CkptStall += int64(a.CkptStall)
	s.RecoveryFixed += int64(a.RecoveryFixed)
	s.Redo += int64(a.RedoWork)
	s.Waiting += int64(a.WaitingForCapacity)
	if res.Minibatch > 0 {
		s.RedoMinibatches += float64(a.RedoWork) / float64(res.Minibatch)
	}
	for _, l := range res.RecoveryLatencies {
		s.Latencies = append(s.Latencies, int64(l))
	}
	s.CkptReadBytes += res.CkptReadBytes
	s.Checkpoints += a.Checkpoints
	s.PeerOffers += res.Peer.Offers
	s.PeerCarried += res.Peer.Offers - res.Peer.Skips - res.Peer.AbortedCaptures
	s.PeerCommits += res.Peer.Commits
	s.PipeRebuilds += res.Pipe.Rebuilds
	s.MultiStepCommits += res.MultiStepCommits
	s.Incarnations += res.Incarnations
	s.ValidationFailures += res.ValidationFailures
}

// gate checks one finished job: it completed, its accounting is exact,
// and its loss trajectory is bit-identical to the failure-free oracle.
// It returns "" for a pass, else the reason.
func gate(res *core.RunResult, ref map[int]float32, iters int) string {
	if !res.Completed {
		return "did not complete"
	}
	a := res.Accounting
	if a.Useful+a.Wasted() != res.WallTime {
		return fmt.Sprintf("useful %v + wasted %v != wall %v", a.Useful, a.Wasted(), res.WallTime)
	}
	if d := divergedIters(res, ref, iters); len(d) > 0 {
		return fmt.Sprintf("loss diverged from oracle at iterations %v", d)
	}
	return ""
}

// divergedIters lists the iterations whose recorded loss is missing or
// not bit-identical to the oracle's.
func divergedIters(res *core.RunResult, ref map[int]float32, iters int) []int {
	var out []int
	for it := 0; it < iters; it++ {
		want, ok1 := ref[it]
		got, ok2 := res.Loss[it]
		if !ok1 || !ok2 || math.Float32bits(want) != math.Float32bits(got) {
			out = append(out, it)
		}
	}
	return out
}

// knownDefect names the documented defect a cell's gate failure is, or ""
// for an unexpected failure. Known defects stay in the workloads and in
// failed_frac; only unexpected failures make a run incorrect.
func knownDefect(c *cell, reason string) string {
	if c.cfg.Policy == core.PolicyTransparentJIT && strings.HasPrefix(reason, "loss diverged") {
		for _, in := range c.cfg.IterFailures {
			if in.Kind == failure.NetworkError {
				// Transparent recovery from a network error completes
				// but resumes from diverged state.
				return "transparent-network-error-divergence"
			}
		}
	}
	if c.cfg.Peer != nil && c.cfg.Peer.DataShards > 0 && c.chaos != nil && reason == "did not complete" {
		// Under shelter write faults an RS restore can pick a stripe
		// with fewer than k readable fragments and retry it until the
		// incarnation cap.
		return "rs-shelter-unreadable-stripe-restart-loop"
	}
	return ""
}

// passResult is one timed execution of a plan.
type passResult struct {
	// wall is the host time of the pass's simulations, summed, and norm
	// the same at probeRef speed (see speed.go).
	wall, norm time.Duration
	// allocBytes is the heap the pass's simulations allocated.
	allocBytes uint64
	// cellMS is each simulation's normalized host time.
	cellMS []float64
	// probed says whether the pass runs the speed probe between
	// simulations (off under the CPU profiler, which would charge the
	// probe's samples to the workload). Unprobed, norm equals wall.
	probed bool
	// probes are the pass's probe brackets in order, each the mean of
	// probeReps probes, and probedAt is when the latest one ended.
	// Simulation i ran between probes[bracket[i]] and the one after it.
	probeReps int
	probes    []time.Duration
	probedAt  time.Time
	cellWall  []time.Duration
	bracket   []int
	sum       simSummary
	// unexpected and known list gate failures by cell.
	unexpected []string
	known      []string
}

// probeEvery is how long simulations may run between two speed probes.
// Short simulations share the probes around them, so the probes cost the
// recovery pass (112 simulations of about 20 ms) a tenth of its time
// rather than a fifth.
const probeEvery = 50 * time.Millisecond

// fleetProbeReps is how many probes each probe bracket of the fleet
// averages. Its one simulation runs for seconds, so two brackets alone
// speak for it, and one probe's jitter would show in its time.
const fleetProbeReps = 7

// run executes every simulation of the plan once, timing it with the host
// clock (between speed probes if probed), and applies the correctness
// gate to every job.
func (pl *plan) run(probed bool) (*passResult, error) {
	pr := &passResult{probed: probed, probeReps: 1}
	var err error
	if pl.fleet != nil {
		pr.probeReps = fleetProbeReps
		err = pl.runFleet(pr)
	} else {
		err = pl.runCells(pr)
	}
	pr.normalize()
	return pr, err
}

// probe takes the pass's next probe bracket: the mean of probeReps
// probes.
func (pr *passResult) probe() {
	var sum time.Duration
	for i := 0; i < pr.probeReps; i++ {
		sum += probe.measure()
	}
	pr.probes = append(pr.probes, sum/time.Duration(pr.probeReps))
	pr.probedAt = time.Now()
}

// timed runs one simulation and adds its host time to the pass. It
// collects the heap first, untimed and after any probe, so every
// simulation starts from the same heap state and meets its garbage
// collections at the same points in every pass.
func (pr *passResult) timed(sim func() error) error {
	if pr.probed && len(pr.probes) == 0 {
		pr.probe()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := sim()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	pr.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	pr.wall += d
	pr.cellWall = append(pr.cellWall, d)
	pr.bracket = append(pr.bracket, len(pr.probes)-1)
	if pr.probed && time.Since(pr.probedAt) >= probeEvery {
		pr.probe()
	}
	return err
}

// normalize closes the pass's last probe bracket and scales every
// simulation's host time by the two probes around it.
func (pr *passResult) normalize() {
	if pr.probed && len(pr.cellWall) > 0 && pr.bracket[len(pr.bracket)-1] == len(pr.probes)-1 {
		pr.probe()
	}
	for i, d := range pr.cellWall {
		n := d
		if pr.probed {
			k := pr.bracket[i]
			n = normalizeTime(d, pr.probes[k], pr.probes[k+1])
		}
		pr.norm += n
		pr.cellMS = append(pr.cellMS, float64(n.Nanoseconds())/1e6)
	}
}

func (pl *plan) runCells(pr *passResult) error {
	var st *tracestream.Stream
	var rec *trace.Recorder
	if pl.stream {
		st = tracestream.New(tracestream.Options{})
		rec = trace.New()
		rec.SetRetain(false)
	}
	results := make([]*core.RunResult, len(pl.cells))
	for i := range pl.cells {
		c := &pl.cells[i]
		cfg := c.config()
		cfg.Stream, cfg.Recorder = st, rec
		err := pr.timed(func() (err error) {
			results[i], err = core.Run(cfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.label, err)
		}
	}
	var jobs []tracestream.JobSummary
	if st != nil {
		jobs = st.Jobs()
		if len(jobs) != len(pl.cells) {
			pr.unexpected = append(pr.unexpected, fmt.Sprintf("stream registered %d jobs for %d cells", len(jobs), len(pl.cells)))
			jobs = nil
		}
		pr.sum.StreamDropped = st.Metrics().DroppedEvents
	}
	for i, res := range results {
		c := &pl.cells[i]
		pr.sum.Cells++
		pr.sum.Faults += c.faults
		pr.sum.Events += res.SimStats.Events()
		pr.sum.Dispatches += res.SimStats.Dispatches
		pr.sum.addJob(res)
		reason := gate(res, c.oracle, c.cfg.Iters)
		if reason == "" && jobs != nil {
			js := jobs[i]
			if !js.Done || !js.HaveFinal || js.Final != res.Accounting || js.Wall != res.WallTime || js.Completed != res.Completed {
				reason = "stream finals differ from RunResult.Accounting"
			}
		}
		pl.record(pr, c, reason)
	}
	return nil
}

// record files a gate failure as known or unexpected.
func (pl *plan) record(pr *passResult, c *cell, reason string) {
	if reason == "" {
		return
	}
	entry := c.label + ": " + reason
	pr.sum.Failures = append(pr.sum.Failures, entry)
	if kd := knownDefect(c, reason); kd != "" {
		pr.known = append(pr.known, entry+" [known: "+kd+"]")
	} else {
		pr.unexpected = append(pr.unexpected, entry)
	}
}

func (pl *plan) runFleet(pr *passResult) error {
	var res *cluster.Result
	err := pr.timed(func() (err error) {
		res, err = cluster.Run(*pl.fleet)
		return err
	})
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := res.Reconcile(); err != nil {
		pr.unexpected = append(pr.unexpected, "fleet reconcile: "+err.Error())
	}
	f := res.Fleet
	pr.sum.Events = f.SimStats.Events()
	pr.sum.Dispatches = f.SimStats.Dispatches
	pr.sum.Preemptions = f.Preemptions
	for i, jr := range res.Jobs {
		spec := &pl.fleet.Jobs[i]
		c := &cell{label: jr.Name, cfg: spec.Config, oracle: pl.fleetOracle}
		pr.sum.Cells++
		if jr.Err != nil || jr.Res == nil {
			pl.record(pr, c, fmt.Sprintf("not admitted: %v", jr.Err))
			continue
		}
		pr.sum.addJob(jr.Res)
		pl.record(pr, c, gate(jr.Res, pl.fleetOracle, spec.Config.Iters))
	}
	return nil
}
