// Quickstart: build a 16-node simulated ECFS cluster with the TSUE update
// engine, write a file through the erasure-coded path, apply small updates,
// read them back, and verify stripe consistency — the whole public surface
// in ~80 lines.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"tsue/internal/cluster"
	"tsue/internal/sim"
)

func main() {
	cfg := cluster.DefaultConfig() // 16 OSDs, RS(6,4), SSDs, 25 Gb/s, TSUE
	c := cluster.MustNew(cfg)
	client := c.NewClient()

	c.Env.Go("quickstart", func(p *sim.Proc) {
		// 1. Create and write a 12 MiB file (2 stripes of RS(6,4) x 1 MiB).
		content := make([]byte, 2*c.StripeWidth())
		rand.New(rand.NewSource(42)).Read(content)
		ino, err := client.Create(p, "hello.dat", int64(len(content)))
		check(err)
		check(client.WriteFile(p, ino, content))
		fmt.Printf("wrote %d bytes as inode %d at t=%v\n", len(content), ino, p.Now())

		// 2. Apply 100 small updates through TSUE's two-stage path.
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 100; i++ {
			off := int64(rng.Intn(len(content) - 4096))
			buf := make([]byte, 4096)
			rng.Read(buf)
			check(client.Update(p, ino, off, buf))
			copy(content[off:], buf)
		}
		fmt.Printf("applied 100 updates, virtual time %v\n", p.Now())

		// 3. Read back immediately — TSUE's DataLog doubles as a read cache,
		// so updates are visible before any recycle.
		got, err := client.Read(p, ino, 0, int64(len(content)))
		check(err)
		if !bytes.Equal(got, content) {
			log.Fatal("read-back mismatch")
		}
		fmt.Println("read-your-writes verified before any drain")

		// 4. Drain the three-layer log pipeline and verify every stripe:
		// encode(data blocks) must equal the parity blocks.
		check(c.DrainAll(p, client))
		n, err := c.Scrub()
		check(err)
		fmt.Printf("scrub OK: %d stripes consistent after drain\n", n)

		st := c.DeviceStats()
		fmt.Printf("device totals: %d reads, %d writes, %d overwrites, %.1f MiB NAND-written\n",
			st.ReadOps, st.WriteOps, st.OverwriteOps, float64(st.NandWriteBytes)/(1<<20))
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
