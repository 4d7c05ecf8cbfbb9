package main

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"jitckpt/internal/checkpoint"
	"jitckpt/internal/cluster"
	"jitckpt/internal/cuda"
	"jitckpt/internal/erasure"
	"jitckpt/internal/experiments"
	"jitckpt/internal/gpu"
	"jitckpt/internal/intercept"
	"jitckpt/internal/nccl"
	"jitckpt/internal/proxy"
	"jitckpt/internal/replay"
	"jitckpt/internal/scheduler"
	"jitckpt/internal/trace"
	"jitckpt/internal/tracestream"
	"jitckpt/internal/train"
	"jitckpt/internal/vclock"
)

// microBenchtime is each microbenchmark's measuring time.
const microBenchtime = "150ms"

// micro is one per-layer host-cost microbenchmark: a testing.Benchmark
// body that calls the layer's public API. allocs says whether its
// allocs/op is reported too.
type micro struct {
	name   string
	allocs bool
	fn     func(b *testing.B)
}

type microResult struct{ nsPerOp, allocsPerOp float64 }

var benchInit sync.Once

// measure runs the microbenchmark once with testing.Benchmark.
func (m micro) measure() (microResult, error) {
	var err error
	benchInit.Do(func() {
		testing.Init()
		err = flag.Set("test.benchtime", microBenchtime)
	})
	if err != nil {
		return microResult{}, err
	}
	var failed string
	r := testing.Benchmark(func(b *testing.B) {
		m.fn(b)
		if b.Failed() {
			failed = "benchmark failed"
		}
	})
	if failed != "" || r.N == 0 {
		return microResult{}, fmt.Errorf("%s did not run", m.name)
	}
	return microResult{float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)}, nil
}

// microbenchmarks lists the per-layer microbenchmarks in BENCHMARK.json
// order. Inputs are shaped like the workloads': the chaos job's 4-rank
// data-parallel model, RS(4,2) stripes, and checkpoint shards the size of
// one of its ranks.
func microbenchmarks() []micro {
	return []micro{
		{"vclock.sleep_cycle", false, benchSleepCycle},
		{"vclock.handoff", false, benchHandoff},
		{"proxy.sync_call", true, benchProxySyncCall},
		{"intercept.launch", true, benchInterceptLaunch},
		{"replay.record", false, benchReplayRecord},
		{"cuda.launch", true, benchCUDALaunch},
		{"gpu.stream_op", false, benchStreamOp},
		{"nccl.allreduce8", true, benchAllReduce8},
		{"train.iter", true, benchTrainIter},
		{"checkpoint.write_rank", true, benchWriteRank},
		{"checkpoint.assemble", true, benchAssemble},
		{"checkpoint.validate_deep", false, benchValidateDeep},
		{"erasure.encode", false, benchErasureEncode},
		{"erasure.decode", false, benchErasureDecode},
		{"tracestream.ingest", true, benchStreamIngest},
		{"trace.emit", false, benchTraceEmit},
		{"scheduler.allocate", false, benchSchedulerAllocate},
	}
}

// runEnv runs env to completion, failing b on error.
func runEnv(b *testing.B, env *vclock.Env) {
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchSleepCycle: one timer push, heap pop, clock advance and dispatch.
func benchSleepCycle(b *testing.B) {
	env := vclock.NewEnv(1)
	env.Go("sleeper", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(vclock.Microsecond)
		}
	})
	runEnv(b, env)
}

// benchHandoff: one Event ping-pong round trip between two processes
// (two proc-to-proc handoffs).
func benchHandoff(b *testing.B) {
	env := vclock.NewEnv(1)
	ping, pong := env.NewEvent("ping"), env.NewEvent("pong")
	env.Go("a", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			back := pong
			ping.Trigger()
			p.Wait(back)
		}
	})
	env.Go("b", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(ping)
			ping = env.NewEvent("ping")
			done := pong
			pong = env.NewEvent("pong")
			done.Trigger()
		}
	})
	runEnv(b, env)
}

// nopKernels is a registry whose one kernel does nothing.
func nopKernels() cuda.Registry {
	return cuda.Registry{"nop": func(cuda.KernelArgs) error { return nil }}
}

// benchProxySyncCall: one synchronous proxied CUDA call (EventQuery),
// encoded and decoded across the process boundary.
func benchProxySyncCall(b *testing.B) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	server, err := proxy.NewServer(env, dev, nccl.NewEngine(env, nccl.DefaultParams()), nopKernels(),
		cuda.DefaultParams(), proxy.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	client := proxy.NewClient(env, server)
	env.Go("worker", func(p *vclock.Proc) {
		ev, err := client.EventCreate(p)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			if _, err := client.EventQuery(p, ev); err != nil {
				b.Error(err)
				return
			}
		}
	})
	runEnv(b, env)
}

// benchInterceptLaunch: one kernel launch through the transparent-mode
// interception layer (replay logging and the mutation guard).
func benchInterceptLaunch(b *testing.B) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	drv, err := cuda.NewDriver(dev, nccl.NewEngine(env, nccl.DefaultParams()), nopKernels(), cuda.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	layer := intercept.New(env, drv, "rank0", intercept.Config{Mode: intercept.ModeTransparent})
	env.Go("worker", func(p *vclock.Proc) {
		buf, err := layer.Malloc(p, 64, 2, "x")
		if err != nil {
			b.Error(err)
			return
		}
		layer.StartMinibatch(0)
		for i := 0; i < b.N; i++ {
			layer.Launch(p, cuda.LaunchParams{Kernel: "nop", Dur: vclock.Microsecond, Bufs: []cuda.Buf{buf}}, cuda.DefaultStream)
			if i%1024 == 1023 {
				layer.StreamSynchronize(p, cuda.DefaultStream)
				layer.StartMinibatch(i)
			}
		}
	})
	runEnv(b, env)
}

// benchReplayRecord: appending one launch to the replay log.
func benchReplayRecord(b *testing.B) {
	l := replay.NewLog()
	c := replay.Call{Kind: replay.CallLaunch, Launch: cuda.LaunchParams{Kernel: "fwd", Bufs: []cuda.Buf{1, 2, 3}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Record(c)
		if i%1024 == 1023 {
			l.StartMinibatch(i)
		}
	}
}

// benchCUDALaunch: one raw driver kernel launch.
func benchCUDALaunch(b *testing.B) {
	env := vclock.NewEnv(1)
	dev := gpu.NewDevice(env, 0, 0, 1<<34)
	drv, err := cuda.NewDriver(dev, nccl.NewEngine(env, nccl.DefaultParams()), nopKernels(), cuda.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	env.Go("worker", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			drv.Launch(p, cuda.LaunchParams{Kernel: "nop", Dur: vclock.Microsecond}, cuda.DefaultStream)
			if i%256 == 255 {
				drv.StreamSynchronize(p, cuda.DefaultStream)
			}
		}
		drv.StreamSynchronize(p, cuda.DefaultStream)
	})
	runEnv(b, env)
}

// benchStreamOp: one device stream operation, enqueued and awaited.
func benchStreamOp(b *testing.B) {
	env := vclock.NewEnv(1)
	s, err := gpu.NewDevice(env, 0, 0, 1<<30).NewStream()
	if err != nil {
		b.Fatal(err)
	}
	env.Go("issuer", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(s.Enqueue(gpu.SleepOp("op", vclock.Microsecond)))
		}
	})
	runEnv(b, env)
}

// benchAllReduce8: one all-reduce across eight ranks of a gradient-sized
// buffer.
func benchAllReduce8(b *testing.B) {
	const n = 8
	env := vclock.NewEnv(1)
	e := nccl.NewEngine(env, nccl.DefaultParams())
	elems := chaosModelElems()
	for r := 0; r < n; r++ {
		dev := gpu.NewDevice(env, 0, r, 1<<34)
		s, err := dev.NewStream()
		if err != nil {
			b.Fatal(err)
		}
		buf, err := dev.Alloc(1<<20, elems, "g")
		if err != nil {
			b.Fatal(err)
		}
		env.Go(fmt.Sprintf("r%d", r), func(p *vclock.Proc) {
			comm, err := e.CommInitRank(p, "w", 0, n, r, dev)
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < b.N; i++ {
				op, err := comm.AllReduce(s, buf)
				if err != nil {
					b.Error(err)
					return
				}
				p.Wait(op.Done)
			}
		})
	}
	runEnv(b, env)
}

// chaosModelElems is the element count of one layer's weights in the
// chaos job's model.
func chaosModelElems() int {
	h := experiments.ChaosWorkload().Hidden
	return h * h
}

// dpJob builds the chaos job's 4-rank data-parallel training workers on
// env and returns them un-setup.
func dpJob(env *vclock.Env) ([]*train.Worker, error) {
	wl := experiments.ChaosWorkload()
	engine := nccl.NewEngine(env, nccl.DefaultParams())
	var workers []*train.Worker
	for r := 0; r < wl.Topo.World(); r++ {
		drv, err := cuda.NewDriver(gpu.NewDevice(env, r/wl.PerNode, r%wl.PerNode, 1<<34), engine,
			train.Kernels(), cuda.DefaultParams())
		if err != nil {
			return nil, err
		}
		w, err := train.NewWorker(train.Config{
			Name: fmt.Sprintf("w%d", r), JobKey: "job", Rank: r, Topo: wl.Topo,
			Model: wl.TrainModel(), Opt: wl.Optimizer(), Step: wl.StepTime(), API: drv, DataSeed: 7,
		})
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// benchTrainIter: one minibatch of the 4-rank data-parallel job (every
// rank's forward, backward, all-reduce and optimizer step).
func benchTrainIter(b *testing.B) {
	env := vclock.NewEnv(1)
	workers, err := dpJob(env)
	if err != nil {
		b.Fatal(err)
	}
	for r, w := range workers {
		env.Go(fmt.Sprintf("rank%d", r), func(p *vclock.Proc) {
			if err := w.Setup(p, 0); err != nil {
				b.Error(err)
				return
			}
			if err := w.RunIters(p, b.N); err != nil {
				b.Error(err)
			}
		})
	}
	runEnv(b, env)
}

var (
	rankStateOnce sync.Once
	rankState     *train.ModelState
	rankStateErr  error
)

// chaosRankState returns rank 1's model state after two minibatches of
// the chaos job: a real checkpoint shard of the recovery workloads.
func chaosRankState() (*train.ModelState, error) {
	rankStateOnce.Do(func() {
		env := vclock.NewEnv(1)
		workers, err := dpJob(env)
		if err != nil {
			rankStateErr = err
			return
		}
		for r, w := range workers {
			env.Go(fmt.Sprintf("rank%d", r), func(p *vclock.Proc) {
				if err := w.Setup(p, 0); err != nil {
					rankStateErr = err
					return
				}
				if err := w.RunIters(p, 2); err != nil {
					rankStateErr = err
					return
				}
				if r == 1 {
					rankState, err = w.SaveModelState(p)
					if err != nil {
						rankStateErr = err
					}
				}
			})
		}
		if err := env.Run(); err != nil && rankStateErr == nil {
			rankStateErr = err
		}
	})
	return rankState, rankStateErr
}

// shardState returns the chaos-job rank state and its modelled size.
func shardState(b *testing.B) (*train.ModelState, int64) {
	ms, err := chaosRankState()
	if err != nil {
		b.Fatal(err)
	}
	return ms, experiments.ChaosWorkload().StateBytesPerGPU()
}

// benchWriteRank: committing one rank's checkpoint (shards, checksums,
// META, rename).
func benchWriteRank(b *testing.B) {
	ms, size := shardState(b)
	env := vclock.NewEnv(1)
	st := checkpoint.NewStore(env, "disk", checkpoint.TmpfsParams())
	env.Go("w", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			dir := checkpoint.RankDir("j", "jit", i, 1)
			if err := checkpoint.WriteRank(p, st, dir, ms, size); err != nil {
				b.Error(err)
				return
			}
		}
	})
	runEnv(b, env)
}

// seededStore returns a store holding four checkpoint generations of the
// 4-rank job.
func seededStore(b *testing.B, env *vclock.Env) *checkpoint.Store {
	ms, size := shardState(b)
	st := checkpoint.NewStore(env, "disk", checkpoint.TmpfsParams())
	topo := experiments.ChaosWorkload().Topo
	env.Go("seed", func(p *vclock.Proc) {
		for it := 0; it < 4; it++ {
			for r := 0; r < topo.World(); r++ {
				if err := checkpoint.WriteRank(p, st, checkpoint.RankDir("j", "jit", it, r), ms, size); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	return st
}

// benchAssemble: choosing and validating the newest restorable
// generation of the 4-rank job.
func benchAssemble(b *testing.B) {
	env := vclock.NewEnv(1)
	st := seededStore(b, env)
	topo := experiments.ChaosWorkload().Topo
	env2 := vclock.NewEnv(1)
	env2.Go("assemble", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := checkpoint.Assemble(p, st, "j", "jit", topo); err != nil {
				b.Error(err)
				return
			}
		}
	})
	runEnv(b, env2)
}

// benchValidateDeep: re-reading and checksumming one rank checkpoint.
func benchValidateDeep(b *testing.B) {
	env := vclock.NewEnv(1)
	st := seededStore(b, env)
	dir := checkpoint.RankDir("j", "jit", 3, 1)
	env2 := vclock.NewEnv(1)
	env2.Go("validate", func(p *vclock.Proc) {
		for i := 0; i < b.N; i++ {
			if !checkpoint.ValidDeep(p, st, dir) {
				b.Error("valid checkpoint failed deep validation")
				return
			}
		}
	})
	runEnv(b, env2)
}

// stripeInput returns an RS(4,2) codec and the rank shard's bytes as
// read back from a committed checkpoint.
func stripeInput(b *testing.B) (*erasure.Codec, []byte) {
	env := vclock.NewEnv(1)
	st := seededStore(b, env)
	var data []byte
	for _, path := range st.List(checkpoint.RankDir("j", "jit", 3, 1)) {
		env2 := vclock.NewEnv(1)
		env2.Go("read", func(p *vclock.Proc) {
			blob, err := st.Read(p, path)
			if err != nil {
				b.Error(err)
			}
			data = append(data, blob...)
		})
		if err := env2.Run(); err != nil {
			b.Fatal(err)
		}
	}
	codec, err := erasure.New(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	return codec, data
}

// benchErasureEncode: computing the two parity fragments of one stripe.
func benchErasureEncode(b *testing.B) {
	codec, data := stripeInput(b)
	shards := codec.Split(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// benchErasureDecode: rebuilding two lost data fragments of one stripe.
func benchErasureDecode(b *testing.B) {
	codec, data := stripeInput(b)
	full, err := codec.Encode(codec.Split(data))
	if err != nil {
		b.Fatal(err)
	}
	frags := make([][]byte, len(full))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(frags, full)
		frags[0], frags[2] = nil, nil
		if err := codec.Reconstruct(frags); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStreamIngest: the live stream consuming one training iteration's
// span (a begin and an end event).
func benchStreamIngest(b *testing.B) {
	st := tracestream.New(tracestream.Options{})
	st.Event(&trace.Ev{Seq: 1, Run: 1, Ph: 'B', Cat: "core", Lane: trace.LaneSim, Name: "run",
		Args: []trace.Arg{{K: "job", V: "job"}, {K: "gpus", V: "4"}}})
	begin := trace.Ev{Run: 1, Ph: 'B', Cat: "train", Lane: trace.Rank(1), Name: "iter"}
	end := trace.Ev{Run: 1, Ph: 'E', Cat: "train", Lane: trace.Rank(1), Name: "iter"}
	seq := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		begin.Seq, begin.T = seq, vclock.Time(i)*150
		st.Event(&begin)
		seq++
		end.Seq, end.Ref, end.T = seq, begin.Seq, begin.T+100
		st.Event(&end)
	}
}

// benchTraceEmit: recording one instant with two formatted arguments.
func benchTraceEmit(b *testing.B) {
	rec := trace.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Instant(vclock.Time(i), "ckpt", trace.Rank(1), "ckpt-commit", "iter", i, "bytes", 4096)
		if i%4096 == 4095 {
			rec.Reset()
		}
	}
}

// benchSchedulerAllocate: leasing and releasing one fleet tenant's nodes
// on the fleet cell's pool with every tenant placed.
func benchSchedulerAllocate(b *testing.B) {
	jobs, err := cluster.ParseJobsSpec(fleetSpec, experiments.FleetPolicies(), fleetIters)
	if err != nil {
		b.Fatal(err)
	}
	env := vclock.NewEnv(1)
	c := gpu.NewCluster(env, fleetNodes, 2, 1<<30)
	pool := scheduler.NewPool(env, c.Nodes)
	per := cluster.FleetWorkload().Nodes
	if _, err := pool.Allocate(len(jobs)*per, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes, err := pool.Allocate(per, nil)
		if err != nil {
			b.Fatal(err)
		}
		pool.Release(nodes)
	}
}
