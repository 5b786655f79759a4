package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestFlagSetGolden pins the command's flag names and defaults to the list
// captured before the cluster flags moved into cmd/internal/clusterflags
// (flag.VisitAll order, i.e. sorted by name).
func TestFlagSetGolden(t *testing.T) {
	want := []string{
		"compute=4",
		"cpu-per-op=0",
		"csv=false",
		"data=",
		"disk-bw=0",
		"engine=",
		"explain=false",
		"max-rows=20",
		"mem-budget=0",
		"net-bw=0",
		"shared-fs=false",
		"trace=false",
		"wire=",
	}
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name+"="+f.DefValue)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("flag set changed:\n got %q\nwant %q", got, want)
	}
}
