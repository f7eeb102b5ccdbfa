package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// goldenRun executes a seeded program that touches every kernel primitive
// and folds each observable step — (virtual time, proc id, step tag) in the
// order the kernel ran them — into an FNV-1a hash. The random choices are
// drawn inside the procs, so a kernel that runs two same-instant events in
// the other order also hands them different draws: any reordering moves the
// hash.
func goldenRun(seed int64) uint64 {
	const us = time.Microsecond
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	defer e.Close()
	h := fnv.New64a()
	log := func(id, step int) {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(e.Now()))
		binary.LittleEndian.PutUint64(b[8:], uint64(id))
		binary.LittleEndian.PutUint64(b[16:], uint64(step))
		h.Write(b[:])
	}
	nap := func() time.Duration { return time.Duration(rng.Intn(4)) * us }

	one := e.NewResource("one", 1)
	three := e.NewResource("three", 3)
	q := NewQueue[int](e)
	cond := NewCond(e)
	workers := NewWaitGroup(e)
	ticking := true

	const nWorkers, nSteps = 12, 40
	workers.Add(nWorkers)
	for id := 0; id < nWorkers; id++ {
		id := id
		e.Go("worker", func(p *Proc) {
			defer workers.Done()
			for s := 0; s < nSteps; s++ {
				switch k := rng.Intn(9); k {
				case 0, 1:
					p.Sleep(nap())
				case 2:
					one.Use(p, nap())
				case 3:
					three.Use(p, nap())
				case 4:
					q.Put(id<<8 | s)
				case 5: // WaitGroup fan-out over nested spawns
					kids := NewWaitGroup(e)
					n := 1 + rng.Intn(3)
					kids.Add(n)
					for c := 0; c < n; c++ {
						c := c
						p.Env().Go("kid", func(kp *Proc) {
							kp.Sleep(nap())
							three.Use(kp, nap())
							log(id, 1000+c)
							kids.Done()
						})
					}
					kids.Wait(p)
				case 6:
					if ticking {
						cond.Wait(p)
					}
				case 7:
					d := nap()
					e.After(d, func() { log(id, 2000+s) })
				case 8:
					e.At(e.Now()+nap(), func() { q.Put(-id) })
					p.Yield()
				}
				log(id, s)
			}
		})
	}
	for id := 100; id < 102; id++ {
		id := id
		e.Go("consumer", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					log(id, -1)
					return
				}
				log(id, v)
				one.Use(p, nap())
			}
		})
	}
	e.Go("ticker", func(p *Proc) {
		for ticking {
			p.Sleep(2 * us)
			log(200, cond.Waiters())
			cond.Broadcast()
		}
	})
	e.Go("closer", func(p *Proc) {
		workers.Wait(p)
		ticking = false
		q.Close()
		log(300, q.Len())
	})

	// Stop twice on the way, then resume to completion.
	for _, limit := range []time.Duration{7 * us, 31 * us, 0} {
		end := e.Run(limit)
		log(400, int(end))
	}
	log(401, e.LiveProcs())
	log(402, e.DroppedPuts())
	return h.Sum64()
}

// TestGoldenOrder pins the kernel's event order. The constants are what the
// channel-based kernel of commit 1cafff2 (the parent of the coroutine kernel)
// produces for this program; a kernel that is a drop-in runs the same events
// with the same seq numbers in the same order and so reproduces them.
func TestGoldenOrder(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{
		{1, 0xa5c31be211ce11cf}, {2, 0xbc90fe42d8714c53}, {3, 0xd98985f9c20071af}, {42, 0x624736f525f643ca},
	} {
		if got := goldenRun(c.seed); got != c.want {
			t.Errorf("seed %d: order hash %#x, want %#x", c.seed, got, c.want)
		}
	}
	if goldenRun(1) != goldenRun(1) {
		t.Error("same seed, different order")
	}
}
