package clusterflags

import (
	"flag"
	"testing"

	"sciview"
)

func TestRegisterFillsSpec(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cluster := Register(fs)
	if err := fs.Parse([]string{"-data", "/d", "-compute", "3", "-disk-bw", "2e6", "-net-bw", "1e6", "-wire", "colenc"}); err != nil {
		t.Fatal(err)
	}
	data, spec := cluster()
	want := sciview.ClusterSpec{ComputeNodes: 3, DiskReadBw: 2e6, DiskWriteBw: 2e6, NetBw: 1e6, Wire: "colenc"}
	if data != "/d" || spec != want {
		t.Errorf("got %q %+v, want /d %+v", data, spec, want)
	}
}
