// Package costmodel implements the paper's Section 5 analytic cost models
// for the Indexed Join (IJ) and Grace Hash (GH) algorithms, the
// crossover predicate derived in Section 6.2, and a calibration routine
// that measures the CPU constants α_build and α_lookup on the host.
//
// The Query Planning Service uses these models to choose a QES for a given
// dataset/system configuration.
package costmodel

import (
	"fmt"
	"math"
	"time"
)

// Params collects the dataset and system parameters of Table 1.
type Params struct {
	// T is the number of tuples in each of R and S.
	T int64
	// CR and CS are tuples per R/S sub-table (c_R, c_S).
	CR int64
	CS int64
	// Ne is the number of edges in the sub-table connectivity graph (n_e).
	Ne int64
	// RSR and RSS are record sizes in bytes (RS_R, RS_S).
	RSR int
	RSS int
	// Ns and Nj are the numbers of storage and joiner nodes (n_s, n_j).
	Ns int
	Nj int
	// NetBw is the aggregate storage→compute bandwidth Net_bw(n_s, n_j) in
	// bytes/second (0 = unlimited).
	NetBw float64
	// ReadBw and WriteBw are per-disk bandwidths in bytes/second
	// (readIO_bw, writeIO_bw; 0 = unlimited).
	ReadBw  float64
	WriteBw float64
	// AlphaBuild and AlphaLookup are CPU seconds per tuple for hash-table
	// insertion and lookup (α_build, α_lookup). A slower processor (the
	// Figure 8 sweep; the paper's α = γ/F) is a larger α.
	AlphaBuild  float64
	AlphaLookup float64

	// The remaining fields are live-calibration overrides filled in by
	// Estimator.Apply; zero means "use the configured rates above".

	// XferBw, when > 0, replaces the transfer denominator
	// min(Net_bw, readIO_bw·n_s) with a measured end-to-end aggregate
	// transfer bandwidth (storage disk read + transport, compression
	// included).
	XferBw float64
	// SpillWriteBw and SpillReadBw, when > 0, replace writeIO_bw /
	// readIO_bw in the GH spill terms with measured per-joiner scratch
	// throughputs, without perturbing the transfer term's storage-disk
	// rate.
	SpillWriteBw float64
	SpillReadBw  float64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.T <= 0 || p.CR <= 0 || p.CS <= 0 {
		return fmt.Errorf("costmodel: non-positive tuple counts (T=%d c_R=%d c_S=%d)", p.T, p.CR, p.CS)
	}
	if p.Ne < 0 {
		return fmt.Errorf("costmodel: negative edge count %d", p.Ne)
	}
	if p.RSR <= 0 || p.RSS <= 0 {
		return fmt.Errorf("costmodel: non-positive record sizes (%d, %d)", p.RSR, p.RSS)
	}
	if p.Ns < 1 || p.Nj < 1 {
		return fmt.Errorf("costmodel: need n_s>=1 and n_j>=1 (got %d, %d)", p.Ns, p.Nj)
	}
	if p.AlphaBuild < 0 || p.AlphaLookup < 0 {
		return fmt.Errorf("costmodel: negative alphas")
	}
	return nil
}

// totalBytes is T·(RS_R + RS_S), the volume both algorithms move.
func (p Params) totalBytes() float64 {
	return float64(p.T) * float64(p.RSR+p.RSS)
}

// rate converts a possibly-unlimited bandwidth to a divisor; unlimited
// resources contribute zero time.
func div(bytes, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return bytes / rate
}

// MS returns m_S = T / c_S, the number of S sub-tables.
func (p Params) MS() float64 { return float64(p.T) / float64(p.CS) }

// Breakdown itemizes a prediction. All fields are in seconds; use
// Duration for display.
type Breakdown struct {
	Transfer float64
	Write    float64
	Read     float64
	Build    float64
	Lookup   float64
	Total    float64
}

// Duration converts a seconds value to a time.Duration for display.
func Duration(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// Transfer returns the shared transfer term of both models:
//
//	T·(RS_R+RS_S) / min(Net_bw(n_s,n_j), readIO_bw·n_s)
func (p Params) Transfer() float64 {
	if p.XferBw > 0 {
		return p.totalBytes() / p.XferBw
	}
	net := p.NetBw
	agg := p.ReadBw * float64(p.Ns)
	var denom float64
	switch {
	case net <= 0 && p.ReadBw <= 0:
		return 0
	case net <= 0:
		denom = agg
	case p.ReadBw <= 0:
		denom = net
	default:
		denom = math.Min(net, agg)
	}
	return p.totalBytes() / denom
}

// IJ predicts the Indexed Join execution time:
//
//	Total_IJ    = Transfer + BuildHT + Lookup
//	BuildHT_IJ  = α_build · T / n_j
//	Lookup_IJ   = α_lookup · n_e · c_S / n_j
func (p Params) IJ() Breakdown {
	build := p.AlphaBuild * float64(p.T) / float64(p.Nj)
	lookup := p.AlphaLookup * float64(p.Ne) * float64(p.CS) / float64(p.Nj)
	transfer := p.Transfer()
	return Breakdown{
		Transfer: transfer,
		Build:    build,
		Lookup:   lookup,
		Total:    transfer + build + lookup,
	}
}

// GH predicts the Grace Hash execution time:
//
//	Total_GH = Transfer + Write + Read + Cpu
//	Write_GH = T·(RS_R+RS_S) / (writeIO_bw · n_j)
//	Read_GH  = T·(RS_R+RS_S) / (readIO_bw · n_j)
//	Cpu_GH   = (α_build + α_lookup) · T / n_j
func (p Params) GH() Breakdown {
	transfer := p.Transfer()
	write := div(p.totalBytes(), p.spillWriteBw()*float64(p.Nj))
	read := div(p.totalBytes(), p.spillReadBw()*float64(p.Nj))
	build := p.AlphaBuild * float64(p.T) / float64(p.Nj)
	lookup := p.AlphaLookup * float64(p.T) / float64(p.Nj)
	return Breakdown{
		Transfer: transfer,
		Write:    write,
		Read:     read,
		Build:    build,
		Lookup:   lookup,
		Total:    transfer + write + read + build + lookup,
	}
}

// GHSharedFS predicts Grace Hash on the single-shared-server configuration
// of Figure 9: the NFS server's disk serves the transfer reads *and* every
// joiner's bucket writes and reads, so spill I/O aggregates over one device
// instead of scaling with n_j.
func (p Params) GHSharedFS() Breakdown {
	transfer := p.sharedTransfer()
	write := div(p.totalBytes(), p.SpillWriteBw)
	if p.SpillWriteBw <= 0 {
		write = div(p.totalBytes(), p.WriteBw)
	}
	read := div(p.totalBytes(), p.SpillReadBw)
	if p.SpillReadBw <= 0 {
		read = div(p.totalBytes(), p.ReadBw)
	}
	build := p.AlphaBuild * float64(p.T) / float64(p.Nj)
	lookup := p.AlphaLookup * float64(p.T) / float64(p.Nj)
	return Breakdown{
		Transfer: transfer,
		Write:    write,
		Read:     read,
		Build:    build,
		Lookup:   lookup,
		Total:    transfer + write + read + build + lookup,
	}
}

// IJSharedFS predicts IJ on the shared-server configuration: only the
// transfer term changes (one server disk).
func (p Params) IJSharedFS() Breakdown {
	transfer := p.sharedTransfer()
	build := p.AlphaBuild * float64(p.T) / float64(p.Nj)
	lookup := p.AlphaLookup * float64(p.Ne) * float64(p.CS) / float64(p.Nj)
	return Breakdown{
		Transfer: transfer,
		Build:    build,
		Lookup:   lookup,
		Total:    transfer + build + lookup,
	}
}

// sharedTransfer is the single-shared-server transfer term, honoring a
// calibrated end-to-end bandwidth when one is set.
func (p Params) sharedTransfer() float64 {
	if p.XferBw > 0 {
		return p.totalBytes() / p.XferBw
	}
	return div(p.totalBytes(), minPos(p.NetBw, p.ReadBw))
}

// spillWriteBw and spillReadBw pick the calibrated scratch rates when
// available, the configured disk rates otherwise.
func (p Params) spillWriteBw() float64 {
	if p.SpillWriteBw > 0 {
		return p.SpillWriteBw
	}
	return p.WriteBw
}

func (p Params) spillReadBw() float64 {
	if p.SpillReadBw > 0 {
		return p.SpillReadBw
	}
	return p.ReadBw
}

func minPos(a, b float64) float64 {
	switch {
	case a <= 0 && b <= 0:
		return 0
	case a <= 0:
		return b
	case b <= 0:
		return a
	default:
		return math.Min(a, b)
	}
}

// UseIJ reports whether the models predict IJ to be the faster algorithm.
func (p Params) UseIJ() bool {
	return p.IJ().Total < p.GH().Total
}

// CrossoverLHS and CrossoverRHS evaluate the closed-form inequality of
// Section 6.2 (with readIO_bw = writeIO_bw = IO_bw): IJ wins when
//
//	α_lookup·(n_e/m_S − 1) < 2·(RS_R+RS_S)/IO_bw
//
// i.e. when the extra lookups IJ performs cost less than the bucket
// write+read GH performs. CrossoverLHS > CrossoverRHS ⇒ prefer GH.
func (p Params) CrossoverLHS() float64 {
	return p.AlphaLookup * (float64(p.Ne)/p.MS() - 1)
}

// CrossoverRHS returns the right-hand side of the crossover inequality.
// With unlimited disks it is +Inf only notionally; we return 0 so the
// caller falls back to the full model comparison.
func (p Params) CrossoverRHS() float64 {
	if p.ReadBw <= 0 || p.WriteBw <= 0 {
		return 0
	}
	return float64(p.RSR+p.RSS)/p.WriteBw + float64(p.RSR+p.RSS)/p.ReadBw
}

// UseIJClosedForm applies the closed-form inequality (valid when the
// transfer terms cancel, i.e. identical for both algorithms).
func (p Params) UseIJClosedForm() bool {
	return p.CrossoverLHS() < p.CrossoverRHS()
}

// Decision records why an engine was chosen. Params holds the constants
// the predictions actually used (post-calibration when the estimator has
// graduated signals); Constants and Calibrated record the provenance. The
// planner fills it, EXPLAIN renders it, the service reports it.
type Decision struct {
	Params    Params
	PredictIJ Breakdown
	PredictGH Breakdown
	Chosen    string
	Forced    bool
	// Calibrated reports whether any live-calibrated constant displaced
	// its static counterpart in Params.
	Calibrated bool
	// Constants is the estimator snapshot the decision consulted (zero
	// when the planner has no estimator).
	Constants Constants
}
