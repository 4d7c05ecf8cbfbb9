package vclock

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// pingPong builds an environment whose two processes exchange rounds
// wakeups: each round trip is two wakes and two process switches, the
// shape of an Event ping-pong. The queues are reused across rounds (a
// fresh Event per round would allocate), so what a round trip costs is
// the kernel's handoff alone.
func pingPong(rounds int) *Env {
	env := NewEnv(1)
	ping, pong := NewQueue[int](env, "ping"), NewQueue[int](env, "pong")
	env.Go("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	env.Go("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			pong.Push(ping.Pop(p))
		}
	})
	return env
}

// BenchmarkHandoff measures one ping-pong round trip between two
// processes: two direct proc-to-proc switches.
func BenchmarkHandoff(b *testing.B) {
	b.ReportAllocs()
	env := pingPong(b.N)
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestHandoffAllocFree pins the allocation budget of a process switch at
// zero, by the long-minus-short method of TestSleepCycleAllocFree.
func TestHandoffAllocFree(t *testing.T) {
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := pingPong(rounds).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 200, 1200
	perRound := (measure(long) - measure(short)) / (long - short)
	t.Logf("%.4f allocs per round trip", perRound)
	if perRound > 0.01 {
		t.Errorf("one handoff round trip allocates %.4f objects, want ~0", perRound)
	}
}

// TestDispatchCounts pins Stats across both switch paths: a lone sleeper
// wakes itself without a channel operation, yet each wake is still one
// dispatch, as is every switch of the ping-pong (its first start plus
// two per round).
func TestDispatchCounts(t *testing.T) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Second)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := env.Stats(), (Stats{Dispatches: 4, TimerFires: 3, Spawns: 1}); got != want {
		t.Errorf("sleeper stats = %+v, want %+v", got, want)
	}

	env = pingPong(5)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := env.Stats(); got.Dispatches != 11 || got.TimerFires != 0 {
		t.Errorf("ping-pong stats = %+v, want 11 dispatches and no timer fires", got)
	}
}

// TestNoGoroutineLeak runs each way a process's goroutine can end — or
// be left parked — and requires every one of them to be gone once Run
// returns.
func TestNoGoroutineLeak(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"run-to-completion", func(t *testing.T) {
			env := NewEnv(1)
			ev := env.NewEvent("go")
			never := env.NewEvent("never")
			env.Go("hung", func(p *Proc) { p.Wait(never) })
			env.Go("waiter", func(p *Proc) { p.Wait(ev) })
			env.Go("sleeper", func(p *Proc) {
				p.Sleep(Second)
				ev.Trigger()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"horizon-with-blocked-sleepers", func(t *testing.T) {
			env := NewEnv(1)
			for i := 0; i < 4; i++ {
				env.Go("sleeper", func(p *Proc) {
					for {
						p.Sleep(Second)
					}
				})
			}
			if err := env.RunUntil(Seconds(2.5)); err != nil {
				t.Fatal(err)
			}
			if env.Now() != 2*Second {
				t.Fatalf("clock at %v, want 2s", env.Now())
			}
		}},
		{"panic-while-others-blocked", func(t *testing.T) {
			env := NewEnv(1)
			never := env.NewEvent("never")
			env.Go("hung", func(p *Proc) { p.Wait(never) })
			env.Go("sleeper", func(p *Proc) { p.Sleep(Hour) })
			env.Go("bad", func(p *Proc) {
				p.Sleep(Second)
				panic("boom")
			})
			if err := env.Run(); err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v, want the panic", err)
			}
		}},
		{"killed-before-first-dispatch", func(t *testing.T) {
			env := NewEnv(1)
			ran := false
			env.Go("killer", func(p *Proc) {
				victim := p.Env().Go("victim", func(*Proc) { ran = true })
				victim.Kill()
				p.Sleep(Second)
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if ran {
				t.Fatal("victim body ran after being killed before its first dispatch")
			}
		}},
		{"spawned-from-processes", func(t *testing.T) {
			env := NewEnv(1)
			never := env.NewEvent("never")
			var spawn func(depth int) func(*Proc)
			spawn = func(depth int) func(*Proc) {
				return func(p *Proc) {
					if depth == 0 {
						p.Wait(never)
						return
					}
					for i := 0; i < 2; i++ {
						p.Env().Go("child", spawn(depth-1))
						p.Sleep(Second)
					}
				}
			}
			env.Go("root", spawn(3))
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if got := env.Stats().Spawns; got != 15 {
				t.Fatalf("spawned %d processes, want 15", got)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			n := runtime.NumGoroutine()
			// An exiting goroutine may still be unwinding after its final
			// handoff; give it a moment before calling it a leak.
			for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("%d goroutines after the run, %d before", n, base)
			}
		})
	}
}
