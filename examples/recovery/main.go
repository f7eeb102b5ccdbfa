// Recovery demonstrates failure handling: run updates with TSUE, kill an
// OSD while its DataLog still holds unrecycled items, then recover — the
// lost blocks are reconstructed from surviving stripes and the dead node's
// unrecycled updates are replayed from their replica holders (§4.2).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"tsue/internal/cluster"
	"tsue/internal/sim"
	"tsue/internal/wire"
)

func main() {
	cfg := cluster.DefaultConfig()
	cfg.EngineOpts.UnitSize = 64 << 20 // keep the DataLog hot at failure time
	c := cluster.MustNew(cfg)
	client := c.NewClient()

	c.Env.Go("recovery-demo", func(p *sim.Proc) {
		content := make([]byte, 4*c.StripeWidth())
		rand.New(rand.NewSource(1)).Read(content)
		ino, err := client.Create(p, "db.dat", int64(len(content)))
		check(err)
		check(client.WriteFile(p, ino, content))

		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 200; i++ {
			off := int64(rng.Intn(len(content) - 8192))
			buf := make([]byte, 8192)
			rng.Read(buf)
			check(client.Update(p, ino, off, buf))
			copy(content[off:], buf)
		}
		fmt.Printf("200 updates applied; OSD 3 dies with a hot DataLog at t=%v\n", p.Now())

		rep, err := c.Recover(p, wire.NodeID(3), 8, cluster.RecoverLogReplay, client)
		check(err)
		fmt.Printf("recovered %d blocks (%.1f MiB) in %v — %.1f MiB/s\n",
			rep.Blocks, float64(rep.Bytes)/(1<<20), rep.TotalTime.Round(0),
			rep.BandwidthBps/(1<<20))
		fmt.Printf("replayed %d unrecycled DataLog records from replica holders as %d merged extents (%.1f KiB)\n",
			rep.ReplayedRecords, rep.ReplayedItems, float64(rep.ReplayedBytes)/1024)

		n, err := c.Scrub()
		check(err)
		got, err := client.Read(p, ino, 0, int64(len(content)))
		check(err)
		if !bytes.Equal(got, content) {
			log.Fatal("content diverged after recovery")
		}
		fmt.Printf("scrub OK (%d stripes) and byte-exact content after node loss\n", n)
	})
	if _, err := c.Env.RunBounded(sim.SmallBound); err != nil {
		log.Fatal(err)
	}
	c.Env.Close()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
