// Package blocks is the ordered fan-out the Matrix Market reader and the wire
// codec share: one job per block, run on helpers beside the caller, and the
// blocks settled in run order through the caller's step (DESIGN.md §13).
package blocks

import (
	"runtime"
	"sync"
)

var (
	Spawn = func(f func()) { go f() }                                               // starts a helper; a variable for tests to count
	ran   = func() chan struct{} { c := make(chan struct{}); close(c); return c }() // the done channel of a job the caller ran
)

// Pipe runs one job per block. The zero Pipe is ready; Close ends it.
type Pipe[B any] struct {
	work  chan task[B]
	wg    sync.WaitGroup
	queue []B             // run and not yet settled, oldest first
	done  []chan struct{} // done[i] is closed when queue[i]'s job is
}

type task[B any] struct { // a job for a helper
	b    B
	job  func(B)
	done chan struct{}
}

// Run runs job(b), then settles as Settle(ahead, step) does. The first block
// with more to follow starts GOMAXPROCS−1 helpers, fed through a channel with
// a slot each so that none parks between jobs; b runs on the caller if it is
// the last or if every helper has a job running and one waiting.
func (p *Pipe[B]) Run(b B, job func(B), more bool, ahead int, step func(B) bool) bool {
	if procs := runtime.GOMAXPROCS(0); more && p.work == nil && procs > 1 {
		p.work = make(chan task[B], procs-1)
		p.wg.Add(procs - 1)
		for range procs - 1 {
			Spawn(func() {
				defer p.wg.Done()
				for t := range p.work {
					t.job(t.b)
					close(t.done)
				}
			})
		}
	}
	if p.done == nil { // room for the ahead blocks Settle may leave, and b
		p.queue, p.done = make([]B, 0, ahead+1), make([]chan struct{}, 0, ahead+1)
	}
	done := ran
	if more && len(p.work) < cap(p.work) {
		done = make(chan struct{})
		p.work <- task[B]{b, job, done}
	} else {
		job(b)
	}
	p.queue, p.done = append(p.queue, b), append(p.done, done)
	return p.Settle(ahead, step)
}

// Settle hands the oldest blocks to step while more than ahead are queued,
// waiting for their jobs, and then while their jobs are done. It reports false
// at a block step refuses, which stays queued.
func (p *Pipe[B]) Settle(ahead int, step func(B) bool) bool {
	for len(p.queue) > 0 {
		select {
		case <-p.done[0]:
		default:
			if len(p.queue) <= ahead {
				return true
			}
			<-p.done[0]
		}
		if !step(p.queue[0]) {
			return false
		}
		p.queue, p.done = p.queue[:copy(p.queue, p.queue[1:])], p.done[:copy(p.done, p.done[1:])] // in place: no queue to regrow
	}
	return true
}

// Close ends the helpers once every job is done and returns the blocks not
// settled, oldest first. Later calls only return them.
func (p *Pipe[B]) Close() []B {
	if p.work != nil {
		close(p.work)
		p.wg.Wait()
		p.work = nil
	}
	return p.queue
}
