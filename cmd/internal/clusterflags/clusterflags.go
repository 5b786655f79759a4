// Package clusterflags declares, once, the command-line flags that every
// command assembling a System over a dataset directory shares.
package clusterflags

import (
	"flag"

	"sciview"
)

// Register declares -data, -compute, -disk-bw, -net-bw and -wire on fs.
// The returned function, called after fs is parsed, yields the dataset
// directory and the ClusterSpec those flags describe; a command sets its
// own extras (cache size, memory budget, faults, ...) on the spec it gets.
func Register(fs *flag.FlagSet) func() (data string, spec sciview.ClusterSpec) {
	data := fs.String("data", "", "dataset directory (required to assemble a system)")
	compute := fs.Int("compute", 4, "number of compute nodes")
	diskBw := fs.Float64("disk-bw", 0, "disk bandwidth in bytes/s (0 = unlimited)")
	netBw := fs.Float64("net-bw", 0, "per-NIC bandwidth in bytes/s (0 = unlimited)")
	wire := fs.String("wire", "", "fetch codec: rowmajor (default) or colenc (compressed columnar frames)")
	return func() (string, sciview.ClusterSpec) {
		return *data, sciview.ClusterSpec{
			ComputeNodes: *compute,
			DiskReadBw:   *diskBw,
			DiskWriteBw:  *diskBw,
			NetBw:        *netBw,
			Wire:         *wire,
		}
	}
}
