package cluster

import (
	"errors"
	"testing"
	"time"

	"tsue/internal/sim"
)

func TestTokenBucketQueueDepth(t *testing.T) {
	tb := &TokenBucket{MaxInflight: 3}
	if !tb.Admit(2) {
		t.Fatal("op under depth cap rejected")
	}
	if tb.Admit(3) {
		t.Fatal("op at depth cap admitted")
	}
	if tb.Admit(100) {
		t.Fatal("op far past depth cap admitted")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	tb := &TokenBucket{}
	for i := 0; i < 100; i++ {
		if !tb.Admit(i) {
			t.Fatal("unconfigured bucket rejected an op")
		}
	}
}

// TestAdmissionBounce drives real client ops, all issued at the same
// instant, against an MDS whose policy admits one op in flight at a time:
// rejections must surface as ErrOverload (errors.Is-able, no route-retry
// burn), be counted, and a backoff-retry loop must eventually land every
// op.
func TestAdmissionBounce(t *testing.T) {
	cfg := testConfig("fo")
	cfg.Admission = &TokenBucket{MaxInflight: 1}
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		ino, err := cl.Create(p, "f", c.StripeWidth())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, make([]byte, c.StripeWidth())); err != nil {
			t.Fatal(err)
		}
		var rejected int64
		const ops = 24
		wg := sim.NewWaitGroup(c.Env)
		wg.Add(ops)
		for i := 0; i < ops; i++ {
			c.Env.Go("op", func(p *sim.Proc) {
				defer wg.Done()
				for {
					err := cl.Update(p, ino, int64(i)*64, []byte{byte(i)})
					if err == nil {
						return
					}
					if !errors.Is(err, ErrOverload) {
						t.Errorf("op %d: non-overload error %v", i, err)
						return
					}
					rejected++
					p.Sleep(5 * time.Millisecond) // back off, then retry
				}
			})
		}
		wg.Wait(p)
		st := c.AdmissionStats()
		if rejected == 0 {
			t.Fatal("24 simultaneous ops under MaxInflight=1 never bounced")
		}
		if st.Rejected != rejected {
			t.Fatalf("MDS counted %d rejections, submitter saw %d", st.Rejected, rejected)
		}
		if st.Inflight != 0 {
			t.Fatalf("in-flight count %d after all ops completed", st.Inflight)
		}
		if st.Admitted < ops {
			t.Fatalf("admitted %d < %d ops", st.Admitted, ops)
		}
	})
}

// TestAdmissionNilPolicyNoTraffic pins the zero-overhead default: with no
// policy configured, no AdmitOp round trip is sent and the counters stay
// zero.
func TestAdmissionNilPolicyNoTraffic(t *testing.T) {
	cfg := testConfig("fo")
	run(t, cfg, func(p *sim.Proc, c *Cluster, cl *Client) {
		ino, err := cl.Create(p, "f", c.StripeWidth())
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteFile(p, ino, make([]byte, c.StripeWidth())); err != nil {
			t.Fatal(err)
		}
		if err := cl.Update(p, ino, 0, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		st := c.AdmissionStats()
		if st.Admitted != 0 || st.Rejected != 0 || st.Inflight != 0 {
			t.Fatalf("nil policy produced admission traffic: %+v", st)
		}
	})
}

// TestAdmissionDepthBackpressure exercises the queue-depth check through
// concurrent clients: with MaxInflight=1, two clients updating at the same
// instant cannot both be admitted on the first try, yet both complete
// under backoff-retry and the in-flight gauge drains to zero.
func TestAdmissionDepthBackpressure(t *testing.T) {
	cfg := testConfig("fo")
	cfg.Admission = &TokenBucket{MaxInflight: 1}
	c := MustNew(cfg)
	setup := c.NewClient()
	var ino uint64
	c.Env.Go("setup", func(p *sim.Proc) {
		var err error
		ino, err = setup.Create(p, "f", c.StripeWidth())
		if err != nil {
			t.Error(err)
			return
		}
		if err := setup.WriteFile(p, ino, make([]byte, c.StripeWidth())); err != nil {
			t.Error(err)
		}
	})
	c.Env.RunTest(t)
	var rejections int64
	doneOps := 0
	for i := 0; i < 4; i++ {
		i := i
		cl := c.NewClient()
		c.Env.Go("client", func(p *sim.Proc) {
			for {
				err := cl.Update(p, ino, int64(i)*128, []byte{byte(i)})
				if err == nil {
					doneOps++
					return
				}
				if !errors.Is(err, ErrOverload) {
					t.Errorf("client %d: %v", i, err)
					return
				}
				rejections++
				p.Sleep(time.Millisecond)
			}
		})
	}
	c.Env.RunTest(t)
	c.Env.Close()
	if doneOps != 4 {
		t.Fatalf("completed %d/4 ops", doneOps)
	}
	st := c.AdmissionStats()
	if st.Rejected != rejections {
		t.Fatalf("MDS rejected %d, clients saw %d", st.Rejected, rejections)
	}
	if st.Inflight != 0 {
		t.Fatalf("in-flight %d after drain", st.Inflight)
	}
}
