package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sciview/internal/cache"
	"sciview/internal/cluster"
	"sciview/internal/service"
)

// counters is a snapshot of every cumulative counter the layers already
// expose; per-layer metrics are deltas of two snapshots around a window.
type counters struct {
	svc      service.Stats
	cache    cache.Stats
	traffic  cluster.Traffic
	diskBusy time.Duration // storage disks' modeled read service time
	netBusy  time.Duration // compute NICs' modeled service time
	chunks   int           // catalog size

	cpu        time.Duration // process user+system CPU
	allocBytes uint64
	gcs        uint32
	goroutines int
}

func (s *stack) snapshot() counters {
	cl := s.sys.Cluster()
	c := counters{svc: s.svc.Stats(), traffic: cl.Traffic(), goroutines: runtime.NumGoroutine()}
	for _, sn := range cl.Storage {
		c.diskBusy += sn.Disk.ReadThrottle().BusyTime()
	}
	for _, cn := range cl.Compute {
		st := cn.Cache.Stats()
		c.cache.Hits += st.Hits
		c.cache.Misses += st.Misses
		c.cache.Evictions += st.Evictions
		c.netBusy += cn.NIC.Throttle().BusyTime()
	}
	for _, def := range cl.Catalog.Tables() {
		c.chunks += len(cl.Catalog.Chunks(def.ID))
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.gcs = ms.TotalAlloc, ms.NumGC
	return c
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
