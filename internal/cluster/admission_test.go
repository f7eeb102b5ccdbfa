package cluster

import (
	"errors"
	"testing"
	"time"

	"tsue/internal/sim"
)

func TestTokenBucketRate(t *testing.T) {
	tb := &TokenBucket{Rate: 10, Burst: 2} // 10/s, burst of 2
	now := time.Duration(0)
	// Cold start: the bucket is full, so Burst ops pass immediately.
	if !tb.Admit(now, 0) || !tb.Admit(now, 0) {
		t.Fatal("burst not admitted at cold start")
	}
	if tb.Admit(now, 0) {
		t.Fatal("third instant op admitted past burst")
	}
	// One token refills every 100ms.
	now += 100 * time.Millisecond
	if !tb.Admit(now, 0) {
		t.Fatal("refilled token not admitted")
	}
	if tb.Admit(now, 0) {
		t.Fatal("second op admitted on one refilled token")
	}
	// A long idle period refills only up to Burst.
	now += time.Minute
	if !tb.Admit(now, 0) || !tb.Admit(now, 0) {
		t.Fatal("burst not admitted after idle")
	}
	if tb.Admit(now, 0) {
		t.Fatal("idle refill exceeded burst")
	}
}

func TestTokenBucketQueueDepth(t *testing.T) {
	tb := &TokenBucket{MaxInflight: 3} // no rate limit, depth only
	if !tb.Admit(0, 2) {
		t.Fatal("op under depth cap rejected")
	}
	if tb.Admit(0, 3) {
		t.Fatal("op at depth cap admitted")
	}
	if tb.Admit(0, 100) {
		t.Fatal("op far past depth cap admitted")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	tb := &TokenBucket{}
	for i := 0; i < 100; i++ {
		if !tb.Admit(0, i) {
			t.Fatal("unconfigured bucket rejected an op")
		}
	}
}

// TestAdmissionBounce drives real client ops against an MDS whose policy
// rejects everything past a tiny burst: rejections must surface as
// ErrOverload (errors.Is-able, no route-retry burn), be counted, and a
// backoff-retry loop must eventually land every op.
func TestAdmissionBounce(t *testing.T) {
	cfg := testConfig("fo")
	cfg.Admission = &TokenBucket{Rate: 200, Burst: 1}
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
		for i := 0; i < ops; i++ {
			for {
				err := cl.Update(p, ino, int64(i)*64, []byte{byte(i)})
				if err == nil {
					break
				}
				if !errors.Is(err, ErrOverload) {
					t.Fatalf("op %d: non-overload error %v", i, err)
				}
				rejected++
				p.Sleep(5 * time.Millisecond) // back off, then retry
			}
		}
		st := c.AdmissionStats()
		if rejected == 0 {
			t.Fatal("burst=1 at 24 back-to-back ops never bounced")
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
