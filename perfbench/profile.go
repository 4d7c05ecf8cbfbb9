package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// CPU attribution rule for the cpu_pct.* metrics.
//
// Every sample of the traced pass's CPU profile is charged to exactly one
// bucket, chosen from its leaf frame (the innermost function, inlined
// frames included):
//
//  1. A leaf in a jitckpt/internal/<pkg> package is charged to <pkg>.
//  2. A runtime leaf in one of four groups (the runtime symbol groups of
//     SNIPPETS.md) is charged to that group: rt_sched (goroutine
//     scheduling, parking, channels, locks, futexes), rt_gc (marking,
//     sweeping, scavenging, write barriers), rt_malloc (allocation and
//     span/heap management), rt_map (map access and hashing).
//  3. Any other leaf — the rest of the runtime (memmove, interface
//     conversions, ...) and the standard library, encoding/gob included —
//     is charged to the innermost jitckpt/internal frame on its stack, so
//     gob work under the proxy counts as proxy.
//  4. A sample with no jitckpt/internal frame is charged to "other" (the
//     benchmark program itself, idle runtime threads).
//
// Shares are percentages of all samples and sum to 100.

// internalPackages are the simulator's packages, in the order their
// cpu_pct metrics are listed.
var internalPackages = []string{
	"analysis", "checkpoint", "cluster", "core", "cuda", "elastic", "erasure",
	"experiments", "failure", "gpu", "intercept", "metrics", "nccl", "peerckpt",
	"pipefree", "proxy", "replay", "scheduler", "tensor", "trace", "tracestream",
	"train", "vclock", "workload",
}

// cpuBuckets returns every bucket name of the attribution rule.
func cpuBuckets() []string {
	out := append([]string(nil), internalPackages...)
	return append(out, "rt_sched", "rt_gc", "rt_malloc", "rt_map", "other")
}

const internalPrefix = "jitckpt/internal/"

// runtimeGroups maps runtime function-name prefixes (after "runtime.")
// to their group; the longest matching prefix wins.
var runtimeGroups = map[string][]string{
	"rt_sched": {
		"gopark", "goready", "ready", "schedule", "findRunnable", "park_m", "mcall", "gogo",
		"goexit", "newproc", "execute", "casgstatus", "chan", "closechan", "makechan",
		"send", "recv", "selectgo", "sellock", "selunlock", "selparkcommit", "(*waitq)",
		"(*hchan)", "futex", "notesleep", "notewakeup", "notetsleep", "lock", "unlock",
		"runq", "globrunq", "stealWork", "wakep", "startm", "stopm", "handoffp", "acquirep",
		"releasep", "mPark", "osyield", "usleep", "procyield", "sem", "(*semaRoot)",
		"gosched", "goschedImpl", "resetspinning", "checkTimers", "(*timers)", "netpoll",
		"sysmon", "retake", "(*mutex)", "systemstack", "morestack", "newstack", "copystack",
		"nanotime", "_System", "goyield", "(*gList)", "(*gQueue)", "injectglist",
	},
	"rt_gc": {
		"gc", "(*gcWork)", "(*gcControllerState)", "(*gcCPULimiterState)", "(*gcBits)",
		"scan", "greyobject", "markroot", "markBits", "(*markBits)", "findObject",
		"wbBuf", "(*wbBuf)", "bulkBarrier", "shade", "sweepone", "bgsweep", "(*sweepLocked)",
		"(*mspan).sweep", "bgscavenge", "(*scavengerState)", "(*pageAlloc).scavenge",
		"(*spanSet)", "(*mheap).reclaim", "typePointers", "(*typePointers)", "_GC",
		"(*unwinder)", "pcvalue", "funcInfo", "(*stackScanState)", "(*mspan).typePointersOf",
	},
	"rt_malloc": {
		"mallocgc", "nextFreeFast", "(*mcache)", "(*mcentral)", "(*mheap)", "newobject",
		"newarray", "makeslice", "growslice", "memclrNoHeapPointers", "(*mspan)",
		"heapSetType", "heapBits", "(*fixalloc)", "persistentalloc", "sysAlloc",
		"(*pageAlloc)", "(*pageCache)", "rawstring", "rawbyteslice", "rawruneslice",
		"(*limiterEvent)", "deductAssistCredit", "gcAssistAlloc", "publicationBarrier",
		"memclr", "makemap", "(*consistentHeapStats)", "(*mSpanList)", "nextFree",
	},
	"rt_map": {
		"map", "(*hmap)", "(*bmap)", "evacuate", "growWork", "hashGrow", "memhash",
		"strhash", "aeshash", "interhash", "nilinterhash", "efaceHash", "typehash",
		"f32hash", "f64hash", "c64hash", "c128hash",
	},
}

// bucketOf applies the attribution rule to one sample's stack, given
// innermost first.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if pkg, ok := internalPackage(leaf); ok {
		return pkg
	}
	if g := runtimeGroup(leaf); g != "" {
		return g
	}
	for _, fn := range stack[1:] {
		if pkg, ok := internalPackage(fn); ok {
			return pkg
		}
	}
	return "other"
}

// internalPackage returns the jitckpt/internal package a function belongs
// to.
func internalPackage(fn string) (string, bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", false
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, p := range internalPackages {
		if p == rest {
			return p, true
		}
	}
	return "", false
}

// runtimeGroup classifies a runtime function, or returns "".
func runtimeGroup(fn string) string {
	var name string
	switch {
	case strings.HasPrefix(fn, "runtime."):
		name = fn[len("runtime."):]
	case strings.HasPrefix(fn, "internal/runtime/maps."):
		return "rt_map"
	case strings.HasPrefix(fn, "internal/runtime/atomic.") || strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "rt_sched"
	default:
		return ""
	}
	best, bestLen := "", -1
	for g, prefixes := range runtimeGroups {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && len(p) > bestLen {
				best, bestLen = g, len(p)
			}
		}
	}
	return best
}

// profileHz is the CPU profile's sampling rate, ten times the runtime's
// default so a few seconds of simulation give thousands of samples.
const profileHz = 1000

// profilePass runs one pass of pl under the CPU profiler, writes the
// profile to path, and returns the pass with its per-bucket CPU shares.
func profilePass(pl *plan, path string) (*passResult, map[string]float64, error) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it (and print a
	// one-line notice that it cannot set its default).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, err
	}
	pr, err := pl.run(false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("parse CPU profile: %w", err)
	}
	return pr, shares(samples), nil
}

// shares buckets weighted stacks into percentages of the total.
func shares(samples []sample) map[string]float64 {
	out := make(map[string]float64)
	var total int64
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.weight)
		total += s.weight
	}
	for b := range out {
		out[b] = 100 * out[b] / float64(total)
	}
	return out
}

// sample is one profile sample: its weight and its function names,
// innermost (inlined callees included) first.
type sample struct {
	weight int64
	stack  []string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's first value
// and its stack of function names.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		rawSamples []rawSample
		strs       []string
		funcName   = map[uint64]int64{}    // function id → string index
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			var values []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1 && b != nil:
					return packed(b, func(x uint64) { s.locs = append(s.locs, x) })
				case f == 1:
					s.locs = append(s.locs, v)
				case f == 2 && b != nil:
					return packed(b, func(x uint64) { values = append(values, x) })
				case f == 2:
					values = append(values, v)
				}
				return nil
			})
			if len(values) > 0 {
				s.value = int64(values[0])
			}
			rawSamples = append(rawSamples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := sample{weight: rs.value}
		for _, loc := range rs.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcName[fid]; idx >= 0 && int(idx) < len(strs) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// walk calls fn for every field of a protobuf message: v carries varint
// and fixed-width values, b the payload of length-delimited fields.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
