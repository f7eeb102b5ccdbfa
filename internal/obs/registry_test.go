package obs

import "testing"

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(2)
	if r.Counter("ops") != c || c.Value() != 3 {
		t.Fatal("counter get-or-create broken")
	}
	r.Counter("idle")
	snap := r.Snapshot()
	if len(snap) != 2 || snap["ops"] != 3 || snap["idle"] != 0 {
		t.Fatalf("snapshot %v", snap)
	}
}
