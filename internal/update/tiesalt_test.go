package update

import "flag"

var tieSalt = flag.Uint64("tiesalt", 0, "sim tie salt of every fake host's environment (sim.Env.SetTieSalt)")
