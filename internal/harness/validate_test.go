package harness

import (
	"strings"
	"testing"
)

// TestRunConfigValidation pins the input-validation satellite: zero or
// negative sizes and counts are rejected with a clear harness error, not a
// panic or a silent default.
func TestRunConfigValidation(t *testing.T) {
	if err := DefaultRunConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RunConfig)
	}{
		{"empty engine", func(c *RunConfig) { c.Engine = "" }},
		{"zero K", func(c *RunConfig) { c.K = 0 }},
		{"zero M", func(c *RunConfig) { c.M = 0 }},
		{"too few OSDs", func(c *RunConfig) { c.OSDs = c.K + c.M - 1 }},
		{"zero clients", func(c *RunConfig) { c.Clients = 0 }},
		{"negative clients", func(c *RunConfig) { c.Clients = -4 }},
		{"zero ops", func(c *RunConfig) { c.Ops = 0 }},
		{"zero file bytes", func(c *RunConfig) { c.FileBytes = 0 }},
		{"zero block size", func(c *RunConfig) { c.BlockSize = 0 }},
		{"zero files", func(c *RunConfig) { c.Files = 0 }},
		{"negative files", func(c *RunConfig) { c.Files = -1 }},
		{"zero pgs", func(c *RunConfig) { c.PGs = 0 }},
		{"negative pgs", func(c *RunConfig) { c.PGs = -8 }},
		{"negative recycle batch", func(c *RunConfig) { c.Opts.RecycleBatch = -1 }},
		{"negative pools", func(c *RunConfig) { c.Opts.Pools = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultRunConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "harness: ") {
			t.Errorf("%s: unclear error %q", tc.name, err)
		}
	}
	// Run surfaces the same error rather than panicking downstream.
	bad := DefaultRunConfig()
	bad.Files = 0
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "Files") {
		t.Fatalf("Run with zero Files: %v", err)
	}
}
