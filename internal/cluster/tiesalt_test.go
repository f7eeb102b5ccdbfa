package cluster

import (
	"flag"
	"os"
	"testing"
)

var tieSaltFlag = flag.Uint64("tiesalt", 0, "sim tie salt of every cluster the tests build (sim.Env.SetTieSalt)")

// TestMain runs the package's tests with every cluster's environment under
// -tiesalt, so one test can be re-run under another same-instant order.
func TestMain(m *testing.M) {
	flag.Parse()
	tieSalt = *tieSaltFlag
	os.Exit(m.Run())
}
