package main

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on is shared: other load on the machine
// changes how fast its cores run, by ±20% from one second to the next and
// by more over minutes, and much of that slows the simulations and a
// fixed kernel alike. So the benchmark times a fixed reference kernel,
// the speed probe, before the first simulation of a pass, after its last
// one and between simulations at most probeEvery apart, and around every
// set-up. It reports each host time scaled to the speed the probes
// around it show:
//
//	normalized = measured × probeRef / mean(probe before, probe after)
//
// A normalized time is the time the work would take on a core that runs
// the probe in probeRef. The probe uses only the standard library, so no
// change to the simulator changes it. It does the kinds of work the
// simulator spends its time on: sorting, map updates and small
// allocations (all workloads), gob round trips with a fresh encoder and
// decoder each (the CUDA proxy), and goroutine handoffs over unbuffered
// channels (the vclock). Its parts are sized to take about the same
// time.

// probeRef sets the scale of the normalized times. It is about the
// probe's median time on one vCPU of a shared 4th-generation Xeon host,
// so normalized times there read close to measured ones.
const probeRef = 4 * time.Millisecond

const (
	probeKeys      = 1 << 14
	probeBucket    = 2048
	probeRoundTrip = 20
	probeHandoffs  = 2000
)

// speedProbe holds the probe's preallocated state.
type speedProbe struct {
	keys, sorted []uint64
	counts       map[uint64]uint64
	objs         [][]byte
	sink         uint64
}

// probeMsg is shaped like a proxied CUDA call.
type probeMsg struct {
	Op   string
	Args []uint64
	Buf  []byte
	Meta map[string]int
}

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(1))
	p := &speedProbe{
		keys:   make([]uint64, probeKeys),
		sorted: make([]uint64, probeKeys),
		counts: make(map[uint64]uint64, probeBucket),
		objs:   make([][]byte, probeKeys),
	}
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
	}
	return p
}

// measure runs the probe once and returns how long it took. It collects
// the heap first, untimed, so a simulation's garbage or a collection it
// left running never lands in the probe. It leaves about 1 MiB of
// garbage, which the collection before the next simulation clears.
func (p *speedProbe) measure() time.Duration {
	runtime.GC()
	t0 := time.Now()
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
	clear(p.counts)
	for i, k := range p.keys {
		p.counts[k%probeBucket] += k
		b := make([]byte, 16+k%64)
		b[0] = byte(k)
		p.objs[i] = b
	}
	for i := 0; i < probeRoundTrip; i++ {
		var buf bytes.Buffer
		in := probeMsg{Op: "launch", Args: p.keys[:16], Buf: p.objs[i], Meta: map[string]int{"stream": i}}
		var out probeMsg
		if gob.NewEncoder(&buf).Encode(&in) != nil || gob.NewDecoder(&buf).Decode(&out) != nil {
			panic("perfbench: speed probe gob round trip failed")
		}
		p.sink += out.Args[0]
	}
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := uint64(0); i < probeHandoffs; i++ {
		ping <- i
		p.sink += <-pong
	}
	close(ping)
	<-pong
	p.sink += p.sorted[0] + p.counts[0]
	return time.Since(t0)
}

// probe is the process's one speed probe; the benchmark runs one
// simulation at a time, so it is never used concurrently.
var probe = newSpeedProbe()

// normalizeTime scales a host time measured between two probes to
// probeRef speed.
func normalizeTime(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*probeRef) / float64(before+after))
}
