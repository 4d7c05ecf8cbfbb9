// Package vclock implements a deterministic virtual-time simulation kernel.
//
// The kernel runs simulation processes (ordinary goroutines) cooperatively:
// exactly one process executes at a time, and the virtual clock advances only
// when every process is blocked in Sleep, Wait, or WaitTimeout. Given the
// same seed and the same program, a simulation produces a byte-identical
// event trace on every run, which is what makes the failure-recovery
// experiments in this repository reproducible.
//
// The design follows the classic process-interaction style (SimPy, OMNeT++):
//
//	env := vclock.NewEnv(seed)
//	env.Go("worker", func(p *vclock.Proc) {
//	    p.Sleep(vclock.Seconds(1.5))
//	    ev.Trigger()
//	})
//	err := env.Run()
//
// Blocking primitives must only be called from inside the owning process.
// Trigger may be called from any process (or from scheduler callbacks), but
// never from outside the simulation.
//
// There is no scheduler goroutine. A process that blocks or exits picks its
// successor itself, on its own goroutine: it pops the run queue or, when
// that is empty, advances the clock to the next timer. It then hands
// control straight to the successor with one channel send, so every
// dispatch costs a single goroutine handoff. When the successor is the
// process itself (a lone sleeper, or a process whose own timer is next) it
// simply keeps running, with no channel operation at all. Run only starts
// the first process and waits for control to come back once the run is
// over: nothing is left, the horizon is reached, or a process panicked.
// It then kills the processes still blocked, one at a time.
//
// The scheduler's hot path is allocation-free in steady state: timers live
// in a value-typed indexed heap (eventq.go), the run queue is a ring
// buffer, and wait tokens are recycled through a free list once every
// reference to them (timer heap, event waiter lists, the woken process)
// has been dropped.
package vclock

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration constants and conversion helpers. Virtual durations reuse the
// Time type: the zero point is simulation start.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour
)

// Seconds converts a floating-point second count to a virtual duration.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Sec reports t as floating-point seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Sec()) }

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateBlocked
	stateDead
)

// wakeCause reports why a blocked process was woken.
type wakeCause int

const (
	wakeRun wakeCause = iota // scheduled to run (new or yielded)
	wakeEvent
	wakeTimeout
	wakeKilled
)

// killedSentinel is panicked inside a killed process to unwind its stack.
type killedSentinel struct{}

// Proc is a simulation process. All blocking methods must be called from the
// goroutine executing the process body.
type Proc struct {
	env    *Env
	id     int
	name   string
	state  procState
	killed bool

	resume chan wakeCause
	body   func(*Proc)

	// token is the wait token for the current block, if any. It lets an
	// event trigger and a timeout race without double-waking the process.
	token *waitToken
}

// waitToken resolves the race between an event trigger and a timer for the
// same blocked process: whichever fires first claims the token. Tokens are
// pooled: refs counts live references (timer-heap entry, waiter-list
// entries, and the woken process's token slot), and a token returns to the
// environment's free list when the count hits zero.
type waitToken struct {
	p       *Proc
	fired   bool
	cause   wakeCause
	refs    int32
	heapIdx int32 // index in the timer heap, -1 when absent
}

// Event is a one-shot condition processes can wait on. Once triggered it
// stays triggered; waiting on a triggered event returns immediately.
type Event struct {
	env       *Env
	triggered bool
	waiters   []*waitToken
	name      string
}

// Stats counts the scheduling work a simulation performed. The bench
// harness divides these by wall time for its events/sec trajectory metric.
type Stats struct {
	// Dispatches is the number of process wakeups executed (every resume
	// of a process counts once, including the final kill).
	Dispatches uint64
	// TimerFires is the number of clock advances driven by timer expiry.
	TimerFires uint64
	// Triggers is the number of Event.Trigger calls that fired.
	Triggers uint64
	// Spawns is the number of processes created.
	Spawns uint64
}

// Events totals the scheduler events a run processed: dispatches, timer
// fires and event triggers (spawns are counted by their first dispatch).
func (s Stats) Events() uint64 { return s.Dispatches + s.TimerFires + s.Triggers }

// Add accumulates other into s (for aggregating stats across runs).
func (s *Stats) Add(other Stats) {
	s.Dispatches += other.Dispatches
	s.TimerFires += other.TimerFires
	s.Triggers += other.Triggers
	s.Spawns += other.Spawns
}

// Env is a simulation environment: a virtual clock plus the set of processes
// sharing it. An Env is not safe for concurrent use from outside the
// simulation; drive it with Run or RunUntil from a single goroutine.
type Env struct {
	now     Time
	seq     uint64
	timers  timerQueue
	runq    procRing
	procs   map[int]*Proc
	nextID  int
	rng     *rand.Rand
	yieldCh chan struct{}
	failure error
	running bool
	horizon Time // RunUntil's limit; < 0 means none
	halted  bool // the current run is over: control goes back to RunUntil
	tracer  func(t Time, format string, args ...interface{})
	rec     interface{}

	tokFree []*waitToken
	doneEv  *Event
	stats   Stats
}

// ProcRecorder is implemented by recorders that want process-lifecycle
// notifications (see SetRecorder). It lives here so vclock needs no
// dependency on the trace package.
type ProcRecorder interface {
	ProcStart(t Time, id int, name string)
	ProcEnd(t Time, id int, name string)
}

// NewEnv creates an environment whose random source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		procs:   make(map[int]*Proc),
		rng:     rand.New(rand.NewSource(seed)),
		yieldCh: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Stats returns the scheduling-work counters accumulated so far.
func (e *Env) Stats() Stats { return e.stats }

// Rand returns the environment's deterministic random source. It must only
// be used from inside simulation processes (or between Run calls).
func (e *Env) Rand() *rand.Rand { return e.rng }

// SetTracer installs a trace sink invoked by Tracef. A nil tracer disables
// tracing.
func (e *Env) SetTracer(fn func(t Time, format string, args ...interface{})) {
	e.tracer = fn
}

// Tracef emits a trace line at the current virtual time if tracing is on.
func (e *Env) Tracef(format string, args ...interface{}) {
	if e.tracer != nil {
		e.tracer(e.now, format, args...)
	}
}

// SetRecorder attaches a structured event recorder to the environment.
// The slot is untyped so vclock stays dependency-free; the trace package
// owns the concrete type and retrieves it with trace.Of. A recorder that
// also implements ProcRecorder receives process start/end notifications.
func (e *Env) SetRecorder(r interface{}) { e.rec = r }

// Recorder returns the attached recorder slot (nil when tracing is off).
func (e *Env) Recorder() interface{} { return e.rec }

// newToken takes a token from the free list (or allocates one) with the
// given initial reference count.
func (e *Env) newToken(p *Proc, refs int32) *waitToken {
	if n := len(e.tokFree) - 1; n >= 0 {
		tok := e.tokFree[n]
		e.tokFree[n] = nil
		e.tokFree = e.tokFree[:n]
		tok.p, tok.fired, tok.cause, tok.refs, tok.heapIdx = p, false, 0, refs, -1
		return tok
	}
	return &waitToken{p: p, refs: refs, heapIdx: -1}
}

// releaseToken drops one reference; the token is recycled when none remain.
func (e *Env) releaseToken(tok *waitToken) {
	tok.refs--
	if tok.refs == 0 {
		tok.p = nil
		e.tokFree = append(e.tokFree, tok)
	}
}

// Go spawns a new simulation process. It may be called before Run or from
// inside a running process; the new process is appended to the run queue and
// will execute at the current virtual time.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		env:    e,
		id:     e.nextID,
		name:   name,
		state:  stateNew,
		resume: make(chan wakeCause),
		body:   body,
	}
	e.nextID++
	e.procs[p.id] = p
	e.runq.push(p)
	e.stats.Spawns++
	if pr, ok := e.rec.(ProcRecorder); ok {
		pr.ProcStart(e.now, p.id, p.name)
	}
	return p
}

// NewEvent creates an untriggered event.
func (e *Env) NewEvent(name string) *Event {
	return &Event{env: e, name: name}
}

// DoneEvent returns a shared, permanently-triggered event. Waiting on it
// returns immediately; triggering it is a no-op. Callers that need an
// "already complete" completion handle (an idle stream's drain, for
// example) use it instead of allocating a fresh triggered event.
func (e *Env) DoneEvent() *Event {
	if e.doneEv == nil {
		e.doneEv = &Event{env: e, triggered: true, name: "done"}
	}
	return e.doneEv
}

// start launches the goroutine backing p. Called the first time p is
// scheduled.
func (e *Env) start(p *Proc) {
	go func() {
		if <-p.resume == wakeKilled {
			e.exit(p)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedSentinel); !ok && e.failure == nil {
					e.failure = fmt.Errorf("vclock: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
			e.exit(p)
		}()
		p.body(p)
	}()
}

// exit retires p and passes control to the next process. It is the last
// thing p's goroutine does.
func (e *Env) exit(p *Proc) {
	p.state = stateDead
	delete(e.procs, p.id)
	if pr, ok := e.rec.(ProcRecorder); ok {
		pr.ProcEnd(e.now, p.id, p.name)
	}
	e.handoff(e.pick())
}

// pick chooses the next process to run: the head of the run queue or,
// when the queue is empty, the process whose timer fires next (advancing
// the clock to it). It counts the dispatch and returns the process with
// its wake cause. pick returns nil, and halts the run, once a process has
// failed, the next timer lies past the horizon, or nothing is left to run.
func (e *Env) pick() (*Proc, wakeCause) {
	for !e.halted && e.failure == nil {
		if e.runq.len() > 0 {
			p := e.runq.pop()
			if p.state == stateDead {
				// Stale wakeup of a process that already unwound.
				if p.token != nil {
					e.releaseToken(p.token)
					p.token = nil
				}
				continue
			}
			cause := wakeRun
			if p.token != nil {
				cause = p.token.cause
				e.releaseToken(p.token)
				p.token = nil
			}
			if p.killed {
				cause = wakeKilled
			}
			e.stats.Dispatches++
			return p, cause
		}
		// Nothing runnable: advance the clock to the next timer.
		if e.timers.len() == 0 {
			break
		}
		next := e.timers.min()
		if next.tok.fired {
			// Fired tokens are removed from the heap eagerly, so this is
			// defensive only.
			e.releaseToken(e.timers.popMin().tok)
			continue
		}
		if e.horizon >= 0 && next.deadline > e.horizon {
			break
		}
		ent := e.timers.popMin()
		e.now = ent.deadline
		tok := ent.tok
		tok.fired = true
		tok.cause = wakeTimeout
		tok.p.token = tok // the heap's reference becomes the token slot's
		e.runq.push(tok.p)
		e.stats.TimerFires++
	}
	e.halted = true
	return nil, 0
}

// handoff passes control to p with the given wake cause, starting its
// goroutine on first dispatch; a nil p returns control to RunUntil. The
// caller must not touch simulation state afterwards: p is running.
func (e *Env) handoff(p *Proc, cause wakeCause) {
	if p == nil {
		e.yieldCh <- struct{}{}
		return
	}
	if p.state == stateNew {
		e.start(p)
	}
	p.state = stateRunnable
	p.resume <- cause
}

// dispatch runs p until control returns to the caller. Only shutdown uses
// it; during a run, processes hand control to each other directly.
func (e *Env) dispatch(p *Proc, cause wakeCause) {
	e.stats.Dispatches++
	e.handoff(p, cause)
	<-e.yieldCh
}

// Run executes the simulation until no process is runnable and no timers are
// pending. Processes still blocked on untriggered events at that point (for
// example, workers hung at a failed collective) are killed so their
// goroutines do not leak. Run returns the first process panic, if any.
func (e *Env) Run() error { return e.RunUntil(-1) }

// RunUntil is Run with a horizon: the simulation stops once the clock would
// advance past limit (limit < 0 means no horizon). The clock is left at the
// last executed event time, never past the horizon.
func (e *Env) RunUntil(limit Time) error {
	if e.running {
		return fmt.Errorf("vclock: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	e.horizon, e.halted = limit, false
	if p, cause := e.pick(); p != nil {
		e.handoff(p, cause)
		<-e.yieldCh
	}
	e.shutdown()
	return e.failure
}

// shutdown kills all remaining processes so their goroutines exit.
func (e *Env) shutdown() {
	ids := make([]int, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := e.procs[id]
		if p.state == stateDead {
			continue
		}
		p.killed = true
		e.dispatch(p, wakeKilled)
	}
	e.runq.clear()
}

// yield blocks the process until it is woken and returns the wake cause.
// It picks the next process itself: if that is p (its own timer is next,
// or it yielded with nothing else runnable), it returns without a channel
// operation; otherwise it hands control straight to the successor, or back
// to RunUntil when the run is over, and waits. If the process was killed
// while blocked, yield unwinds its stack.
func (p *Proc) yield() wakeCause {
	e := p.env
	p.state = stateBlocked
	next, cause := e.pick()
	if next != p {
		e.handoff(next, cause)
		cause = <-p.resume
	}
	if cause == wakeKilled {
		panic(killedSentinel{})
	}
	p.state = stateRunnable
	return cause
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Sleep blocks the process for d of virtual time. Negative or zero durations
// yield to other runnable processes at the current time.
func (p *Proc) Sleep(d Time) {
	if p.killed {
		panic(killedSentinel{})
	}
	if d <= 0 {
		p.Yield()
		return
	}
	tok := p.env.newToken(p, 1)
	p.env.addTimer(p.env.now+d, tok)
	p.yield()
}

// Yield places the process at the back of the run queue at the current time,
// letting other runnable processes execute first.
func (p *Proc) Yield() {
	if p.killed {
		panic(killedSentinel{})
	}
	p.env.runq.push(p)
	p.yield()
}

// Wait blocks until ev is triggered. Waiting on an already-triggered event
// returns immediately.
func (p *Proc) Wait(ev *Event) {
	if p.killed {
		panic(killedSentinel{})
	}
	if ev.triggered {
		return
	}
	tok := p.env.newToken(p, 1)
	ev.waiters = append(ev.waiters, tok)
	p.yield()
}

// WaitTimeout blocks until ev triggers or d elapses. It reports whether the
// event triggered (true) or the wait timed out (false).
func (p *Proc) WaitTimeout(ev *Event, d Time) bool {
	if p.killed {
		panic(killedSentinel{})
	}
	if ev.triggered {
		return true
	}
	if d <= 0 {
		return false
	}
	tok := p.env.newToken(p, 2) // referenced by the waiter list and the timer heap
	ev.waiters = append(ev.waiters, tok)
	p.env.addTimer(p.env.now+d, tok)
	cause := p.yield()
	return cause == wakeEvent
}

// Kill marks the process for termination. A blocked or runnable process is
// unwound the next time it would run; a process killing itself unwinds
// immediately. Killing a dead process is a no-op.
func (p *Proc) Kill() {
	if p.state == stateDead {
		return
	}
	p.killed = true
	if p.token != nil {
		// Already queued for wake; the kill flag overrides the cause.
		return
	}
	if p.state == stateBlocked || p.state == stateNew {
		tok := p.env.newToken(p, 1)
		tok.fired = true
		tok.cause = wakeKilled
		p.token = tok
		p.env.runq.push(p)
	}
}

func (e *Env) addTimer(deadline Time, tok *waitToken) {
	e.seq++
	e.timers.push(deadline, e.seq, tok)
}

// Trigger fires the event, waking all current waiters in registration order.
// Triggering an already-triggered event is a no-op.
func (ev *Event) Trigger() {
	if ev.triggered {
		return
	}
	ev.triggered = true
	e := ev.env
	e.stats.Triggers++
	for _, tok := range ev.waiters {
		if tok.fired {
			e.releaseToken(tok)
			continue
		}
		tok.fired = true
		tok.cause = wakeEvent
		if tok.heapIdx >= 0 {
			// The token also has a timeout pending; remove the now-dead
			// timer eagerly so the heap does not accumulate stale entries.
			e.timers.remove(tok)
			e.releaseToken(tok)
		}
		tok.p.token = tok // the waiter list's reference becomes the token slot's
		e.runq.push(tok.p)
	}
	ev.waiters = nil
}

// Triggered reports whether the event has fired.
func (ev *Event) Triggered() bool { return ev.triggered }

// Name returns the event's diagnostic name.
func (ev *Event) Name() string { return ev.name }
