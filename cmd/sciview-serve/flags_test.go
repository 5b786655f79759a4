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
		"addr=127.0.0.1:0",
		"cache=67108864",
		"compute=4",
		"data=",
		"disk-bw=0",
		"engine=",
		"faults=",
		"left=T1",
		"max-inflight=4",
		"max-queue=0",
		"mem-budget=0",
		"metrics-addr=",
		"net-bw=0",
		"no-calibrate=false",
		"on=x,y,z",
		"prefetch=2",
		"priority=0",
		"query=false",
		"range=",
		"repair-bw=0",
		"repair-interval=0s",
		"replay-steps=0s",
		"right=T2",
		"stats=false",
		"strict=false",
		"timeout=0s",
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
