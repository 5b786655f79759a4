package costmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// base returns parameters resembling the paper's setup, scaled down.
func base() Params {
	return Params{
		T:  1 << 20,
		CR: 4096, CS: 1024,
		Ne:  1 << 10, // one left partner per right sub-table
		RSR: 16, RSS: 16,
		Ns: 5, Nj: 5,
		NetBw:  50e6, // ~ Fast Ethernet × 5 links
		ReadBw: 30e6, WriteBw: 25e6,
		AlphaBuild:  100e-9,
		AlphaLookup: 60e-9,
	}
}

func TestValidate(t *testing.T) {
	p := base()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.T = 0
	if bad.Validate() == nil {
		t.Error("T=0 accepted")
	}
	bad = p
	bad.Nj = 0
	if bad.Validate() == nil {
		t.Error("Nj=0 accepted")
	}
	bad = p
	bad.RSR = 0
	if bad.Validate() == nil {
		t.Error("RSR=0 accepted")
	}
	bad = p
	bad.AlphaBuild = -1
	if bad.Validate() == nil {
		t.Error("negative alpha accepted")
	}
	bad = p
	bad.Ne = -1
	if bad.Validate() == nil {
		t.Error("negative Ne accepted")
	}
}

func TestTransferTerm(t *testing.T) {
	p := base()
	// min(50e6, 30e6*5=150e6) = 50e6; bytes = 2^20 * 32.
	want := float64(p.T) * 32 / 50e6
	if got := p.Transfer(); !close(got, want) {
		t.Errorf("Transfer = %g, want %g", got, want)
	}
	// Unlimited network: bound by aggregate disk read.
	p.NetBw = 0
	want = float64(p.T) * 32 / (30e6 * 5)
	if got := p.Transfer(); !close(got, want) {
		t.Errorf("Transfer = %g, want %g", got, want)
	}
	// Both unlimited: free.
	p.ReadBw = 0
	if got := p.Transfer(); got != 0 {
		t.Errorf("Transfer = %g, want 0", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

func TestGHInsensitiveToNe(t *testing.T) {
	p := base()
	g1 := p.GH().Total
	p.Ne *= 100
	if g2 := p.GH().Total; g2 != g1 {
		t.Errorf("GH depends on n_e: %v vs %v", g1, g2)
	}
}

func TestIJGrowsWithNeCs(t *testing.T) {
	p := base()
	t1 := p.IJ().Total
	p.Ne *= 8
	t2 := p.IJ().Total
	if t2 <= t1 {
		t.Errorf("IJ did not grow with n_e: %v vs %v", t1, t2)
	}
}

func TestCrossoverExists(t *testing.T) {
	// Low n_e·c_S: IJ wins (GH pays spill I/O). High n_e·c_S: GH wins.
	p := base()
	p.Ne = int64(p.MS()) // degree 1
	if !p.UseIJ() {
		t.Errorf("IJ should win at degree 1: IJ=%v GH=%v", p.IJ().Total, p.GH().Total)
	}
	p.Ne = int64(p.MS()) * 2000
	if p.UseIJ() {
		t.Errorf("GH should win at degree 2000: IJ=%v GH=%v", p.IJ().Total, p.GH().Total)
	}
}

func TestClosedFormMatchesFullModel(t *testing.T) {
	// With readIO_bw=writeIO_bw and identical transfer terms, the closed
	// form and the full model agree (away from the boundary).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := base()
		p.ReadBw = 20e6
		p.WriteBw = 20e6
		p.Ne = int64(p.MS()) * int64(1+r.Intn(4000))
		lhs, rhs := p.CrossoverLHS(), p.CrossoverRHS()
		if close(lhs, rhs) {
			return true // boundary: either answer acceptable
		}
		return p.UseIJClosedForm() == p.UseIJ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHigherComputePowerFavorsIJ(t *testing.T) {
	// Figure 8's trend: as the CPU gets slower (α up), GH's advantage
	// grows; as it gets faster, IJ wins.
	p := base()
	p.ReadBw, p.WriteBw = 10e6, 10e6
	p.Ne = int64(p.MS()) * 20
	alphaBuild, alphaLookup := p.AlphaBuild, p.AlphaLookup
	gap := func(slowdown float64) float64 {
		p.AlphaBuild, p.AlphaLookup = slowdown*alphaBuild, slowdown*alphaLookup
		return p.GH().Total - p.IJ().Total
	}
	// gap decreasing in the slowdown (IJ has more CPU work than GH here).
	if !(gap(1) > gap(2) && gap(2) > gap(8)) {
		t.Errorf("gap not decreasing: %v %v %v", gap(1), gap(2), gap(8))
	}
}

func TestSharedFSPenalizesGH(t *testing.T) {
	p := base()
	p.Ne = int64(p.MS()) * 2 // modest degree
	localGap := p.GH().Total - p.IJ().Total
	sharedGap := p.GHSharedFS().Total - p.IJSharedFS().Total
	if sharedGap <= localGap {
		t.Errorf("shared FS should widen GH's deficit: local %v shared %v", localGap, sharedGap)
	}
	// GH on shared FS gets no better with more compute nodes once I/O
	// dominates: compare nj=2 vs nj=8 relative change.
	p.Nj = 2
	g2 := p.GHSharedFS().Total
	p.Nj = 8
	g8 := p.GHSharedFS().Total
	// CPU shrinks but I/O terms are constant; the drop must be small
	// relative to the I/O share.
	ioShare := p.GHSharedFS()
	if g2-g8 > ioShare.Write {
		t.Errorf("shared-FS GH improved too much with n_j: %v -> %v", g2, g8)
	}
}

func TestScalesLinearlyInT(t *testing.T) {
	p := base()
	ij1, gh1 := p.IJ().Total, p.GH().Total
	p.T *= 4
	p.Ne *= 4 // same partitioning, 4× grid
	ij4, gh4 := p.IJ().Total, p.GH().Total
	if !close(ij4, 4*ij1) || !close(gh4, 4*gh1) {
		t.Errorf("not linear: IJ %v->%v GH %v->%v", ij1, ij4, gh1, gh4)
	}
}

func TestCalibrate(t *testing.T) {
	ab, al := Calibrate(1 << 14)
	if ab <= 0 || al <= 0 {
		t.Fatalf("calibration returned %g, %g", ab, al)
	}
	// Sanity: per-tuple hash ops on modern hardware are 1ns–100µs.
	if ab > 1e-4 || al > 1e-4 {
		t.Errorf("implausibly slow: build %g s/tuple, lookup %g", ab, al)
	}
}

func TestBreakdownTotalsConsistent(t *testing.T) {
	p := base()
	ij := p.IJ()
	if !close(ij.Total, ij.Transfer+ij.Build+ij.Lookup) {
		t.Error("IJ breakdown does not sum")
	}
	gh := p.GH()
	if !close(gh.Total, gh.Transfer+gh.Write+gh.Read+gh.Build+gh.Lookup) {
		t.Error("GH breakdown does not sum")
	}
}
