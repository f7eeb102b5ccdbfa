package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tsue/internal/sim"
	"tsue/internal/update"
	"tsue/internal/wire"
)

// TestDegradedReadsAcrossRecovery: a degraded read waits for neither the
// window's registration nor its cutover, and still returns the last acked
// bytes at every step of both and of the rebuild between them. Every engine
// runs at salt 0 and under eight tie salts.
//
// A window is opened (BeginDegraded), degraded updates are journaled for a
// lost data block L and a surviving data block D of the same stripe, and
// the node is recovered (interleaved). Nothing is written while reads are
// in flight, so every read must equal the reference. At each step — a
// registration replica fetch, a settle, a block's rebuild request and its
// answer, a surrogate's journal replay request, a replay and its answer —
// three reads are issued:
// D, a lost data block not yet rebuilt (while there is one) and a rebuilt
// one, L first. Two interleavings are forced with handler hooks: D's first
// replay and L's are held at the home until a read of that block has been
// served there, and that read's answer is held until the route retires. So
// a home read misses the replay, the overlay must supply it, and the read
// overlays after the journal index is gone. With PL, PLR, PARIX and CoRD a
// replay of D changes D in place while the parities only log it, so a read
// that reconstructs L from raw shards during the cutover returns wrong
// bytes.
func TestDegradedReadsAcrossRecovery(t *testing.T) {
	for _, engine := range update.Names() {
		for salt := uint64(0); salt <= 8; salt++ {
			t.Run(fmt.Sprintf("%s/salt%d", engine, salt), func(t *testing.T) {
				runDegradedReads(t, engine, salt, true)
			})
		}
	}
}

// TestDegradedReadsAcrossOverlappedRecovery is TestDegradedReadsAcrossRecovery
// without a pre-opened window: Recover registers the window itself, so its
// settle runs beside the rebuild and the reads of the "settle" and
// "rebuild" steps are in flight together. The writes that the other test
// journals are acked before the death instead, so they are log state the
// settle merges (with TSUE, DataLog replicas that seed the journals and
// give the cutover steps their replays). At least one rebuild request must
// arrive while the settle still runs.
func TestDegradedReadsAcrossOverlappedRecovery(t *testing.T) {
	for _, engine := range update.Names() {
		for salt := uint64(0); salt <= 8; salt++ {
			t.Run(fmt.Sprintf("%s/salt%d", engine, salt), func(t *testing.T) {
				runDegradedReads(t, engine, salt, false)
			})
		}
	}
}

// probeSize is the length of every probe read, from a block's first byte.
const probeSize = 8 << 10

// runDegradedReads runs one probe run; with pre set the window is opened
// by BeginDegraded before Recover.
func runDegradedReads(t *testing.T, engine string, salt uint64, pre bool) {
	c := MustNew(degradedConfig(engine))
	defer c.Env.Close()
	c.Env.SetTieSalt(salt)
	cl, admin, prober := c.NewClient(), c.NewClient(), c.NewClient()
	const stripes = 8
	victim := wire.NodeID(3)
	bs, sw := c.Cfg.BlockSize, c.StripeWidth()
	content := make([]byte, stripes*sw)
	rng := rand.New(rand.NewSource(int64(97 + salt)))
	rng.Read(content)
	var ino uint64

	// The lost data blocks in file order, L first, and D beside L.
	var lost []wire.BlockID
	for s := uint32(0); s < stripes; s++ {
		osds := c.Placement(wire.StripeID{Ino: 1, Stripe: s})
		for i := 0; i < c.Cfg.K; i++ {
			if osds[i] == victim {
				lost = append(lost, wire.BlockID{Ino: 1, Stripe: s, Index: uint16(i)})
			}
		}
	}
	if len(lost) < 2 {
		t.Fatalf("node %d hosts %d data blocks of the file, want at least 2", victim, len(lost))
	}
	l := lost[0]
	d := wire.BlockID{Ino: 1, Stripe: l.Stripe, Index: (l.Index + 1) % uint16(c.Cfg.K)}
	fileOff := func(b wire.BlockID) int64 { return int64(b.Stripe)*sw + int64(b.Index)*bs }

	var (
		armed     bool
		overlap   int // rebuild requests that arrived while the settle ran
		inflight  = sim.NewWaitGroup(c.Env)
		steps     = make(map[string]int)
		bad       []string
		straddled = make(map[wire.BlockID]bool) // a read answered after the route retired
	)
	read := func(p *sim.Proc, step string, b wire.BlockID) {
		got, err := prober.Read(p, ino, fileOff(b), probeSize)
		want := content[fileOff(b) : fileOff(b)+probeSize]
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%s: read %v at %v: %v", step, b, p.Now(), err))
		case !bytes.Equal(got, want):
			i := 0
			for got[i] == want[i] {
				i++
			}
			bad = append(bad, fmt.Sprintf("%s: read %v at %v differs from the last acked bytes from byte %d", step, b, p.Now(), i))
		}
	}
	// probe issues the step's reads, each in its own proc.
	probe := func(step string) {
		if !armed {
			return
		}
		steps[step]++
		targets := []wire.BlockID{d}
		// A lost block is rebuilt once placement has moved it off the
		// victim, and stays so after the window retires.
		st := c.degraded[victim]
		rebuilt := func(b wire.BlockID) bool { return c.Placement(b.StripeID())[b.Index] != victim }
		for _, b := range lost {
			if st == nil || !rebuilt(b) {
				targets = append(targets, b)
				break
			}
		}
		for _, b := range lost {
			if st != nil && rebuilt(b) {
				targets = append(targets, b)
				break
			}
		}
		for _, b := range targets {
			inflight.Add(1)
			c.Env.Go("probe", func(p *sim.Proc) {
				defer inflight.Done()
				read(p, step, b)
			})
		}
	}
	// waitFor polls cond every 5 µs for at most limit.
	waitFor := func(p *sim.Proc, limit time.Duration, cond func() bool) {
		for end := p.Now() + limit; !cond() && p.Now() < end; {
			p.Sleep(5 * time.Microsecond)
		}
	}
	held := make(map[wire.BlockID]int) // 1: a replay waits for a home read; 2: that read was served
	for _, o := range c.OSDs {
		h := o.handle
		if err := c.Fabric.SetHandler(o.id, func(p *sim.Proc, from wire.NodeID, m wire.Msg) wire.Msg {
			switch v := m.(type) {
			case *wire.ReplicaFetch:
				probe("registration fetch")
			case *wire.Settle:
				probe("settle")
			case *wire.RecoverBlock:
				if st := c.degraded[victim]; st != nil && st.settling {
					overlap++
				}
				probe("rebuild")
				resp := h(p, from, m)
				probe("rebuilt")
				return resp
			case *wire.JournalReplay:
				probe("journal replay")
			case *wire.ReplayUpdate:
				if armed && (v.Blk == d || v.Blk == l) && held[v.Blk] == 0 {
					held[v.Blk] = 1
					probe("replay held")
					// A read that reconstructs never reaches the home.
					waitFor(p, 2*time.Millisecond, func() bool { return held[v.Blk] == 2 })
				}
				probe("replay")
				resp := h(p, from, m)
				probe("replayed")
				return resp
			case *wire.ReadBlock:
				if !v.Raw && held[v.Blk] == 1 {
					resp := h(p, from, m)
					held[v.Blk] = 2
					waitFor(p, 50*time.Millisecond, func() bool { return c.degraded[victim] == nil })
					straddled[v.Blk] = c.degraded[victim] == nil
					return resp
				}
			}
			return h(p, from, m)
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := false
	c.Env.Go("test", func(p *sim.Proc) {
		var err error
		if ino, err = cl.Create(p, "f", int64(len(content))); err != nil || ino != 1 {
			t.Errorf("create: ino %d, %v", ino, err)
			return
		}
		if err := cl.WriteFile(p, ino, content); err != nil {
			t.Error(err)
			return
		}
		write := func(off int64, n int) bool {
			buf := make([]byte, n)
			rng.Read(buf)
			if err := cl.Update(p, ino, off, buf); err != nil {
				t.Error(err)
				return false
			}
			copy(content[off:], buf)
			return true
		}
		// Acked before the death: TSUE's DataLog replicas seed the journals.
		for i := 0; i < 40; i++ {
			if !write(int64(rng.Intn(len(content)-4096)), 1+rng.Intn(4096)) {
				return
			}
		}
		if pre {
			armed = true
			if err := c.BeginDegraded(p, victim, admin); err != nil {
				t.Error(err)
				return
			}
			armed = false
			inflight.Wait(p)
		}
		// Journaled in the open window (acked before the death without
		// one): L's extents overlap each other, D's reach past L's, and
		// every other lost data block gets one.
		for _, w := range []struct {
			b        wire.BlockID
			off, len int64
		}{{l, 0, 4096}, {l, 1024, 1024}, {d, 2048, 4096}} {
			if !write(fileOff(w.b)+w.off, int(w.len)) {
				return
			}
		}
		for _, b := range lost[1:] {
			if !write(fileOff(b)+512, 3072) {
				return
			}
		}
		armed = true
		if _, err := c.Recover(p, victim, 2, RecoverInterleaved, admin); err != nil {
			t.Error(err)
			return
		}
		inflight.Wait(p)
		armed = false
		if err := c.DrainAll(p, admin); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Scrub(); err != nil {
			t.Errorf("scrub: %v", err)
			return
		}
		got, err := cl.Read(p, ino, 0, int64(len(content)))
		if err != nil || !bytes.Equal(got, content) {
			t.Errorf("read-back after recovery: err %v, equal %v", err, bytes.Equal(got, content))
			return
		}
		done = true
	})
	c.Env.RunTest(t)
	for _, b := range bad {
		t.Error(b)
	}
	if !done {
		if !t.Failed() {
			t.Fatal("test body deadlocked")
		}
		return
	}
	want := []string{"registration fetch", "settle", "rebuild", "rebuilt"}
	// Without a window open before Recover only TSUE journals anything:
	// its DataLog replicas.
	journaled := pre || engine == "tsue"
	if journaled {
		want = append(want, "journal replay", "replay held", "replay", "replayed")
	}
	for _, s := range want {
		if steps[s] == 0 {
			t.Errorf("no reads issued at step %q", s)
		}
	}
	straddler := d
	if !pre {
		straddler = l // D journals nothing without a window: no replay of it is held
	}
	if journaled && !straddled[straddler] {
		t.Errorf("no read of %v was answered after the route retired", straddler)
	}
	if !pre && overlap == 0 {
		t.Error("no rebuild request arrived while the settle ran")
	}
}
