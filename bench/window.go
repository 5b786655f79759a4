package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sciview/internal/engine"
	"sciview/internal/service"
)

// obs is one submitted statement as its client saw it.
type obs struct {
	stmt  int
	begin time.Duration // submit, since window start
	lat   time.Duration // submit → response
	// returned: the service answered; ok: and the answer matched the
	// reference; err says what went wrong otherwise.
	returned, ok bool
	err          string
	// From the response; zero when the submission failed.
	queue     time.Duration
	degraded  bool
	rows      int
	predicted float64 // the chosen engine's predicted seconds (0 for table scans)
	res       *engine.Result
}

// submit sends statement i through the service and checks the result.
func (s *stack) submit(i int, origin time.Time) obs {
	st := s.stmts[i]
	o := obs{stmt: i}
	vBefore := s.sys.DatasetVersion()
	t0 := time.Now()
	resp, err := s.svc.SubmitSQL(bg, s.ex, service.SQL{Query: st.sql})
	o.lat = time.Since(t0)
	o.begin = t0.Sub(origin)
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.returned = true
	vAfter := s.sys.DatasetVersion()
	fp := st.fingerprint(resp.Rows)
	o.ok = s.correct(i, fp, vBefore, vAfter)
	if !o.ok {
		o.err = fmt.Sprintf("wrong result: %d rows, checksum %x (versions %d..%d)", fp.rows, fp.sum, vBefore, vAfter)
	}
	o.queue, o.degraded, o.rows, o.res = resp.QueueWait, resp.Degraded, fp.rows, resp.Result
	if d := resp.Decision; d != nil {
		o.predicted = d.PredictIJ.Total
		if d.Chosen == "gh" {
			o.predicted = d.PredictGH.Total
		}
	}
	return o
}

// watchdog turns a hung statement into a loud failure: a statement in
// flight longer than limit dumps all goroutines and exits the process
// non-zero, instead of hanging whatever runs the benchmark.
type watchdog struct {
	limit   time.Duration
	dir     string
	started []atomic.Int64 // per client: UnixNano of the in-flight submit, 0 when idle
	stop    chan struct{}
	done    chan struct{}
}

func newWatchdog(nClients int, warmLat time.Duration, dir string) *watchdog {
	limit := 30 * time.Second
	if l := 20 * warmLat; l > limit {
		limit = l
	}
	w := &watchdog{limit: limit, dir: dir, started: make([]atomic.Int64, nClients),
		stop: make(chan struct{}), done: make(chan struct{})}
	go w.run()
	return w
}

func (w *watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			for c := range w.started {
				if t := w.started[c].Load(); t != 0 && now.Sub(time.Unix(0, t)) > w.limit {
					w.trip(c)
				}
			}
		}
	}
}

func (w *watchdog) trip(client int) {
	name := filepath.Join(w.dir, fmt.Sprintf("goroutines-%d.txt", os.Getpid()))
	fmt.Fprintf(os.Stderr, "bench: watchdog: client %d has a statement in flight for more than %v; goroutine dump in %s\n",
		client, w.limit, name)
	if err := os.MkdirAll(w.dir, 0o755); err == nil {
		if f, err := os.Create(name); err == nil {
			pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
		}
	}
	os.Exit(3)
}

func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// windowResult is what one closed-loop window produced.
type windowResult struct {
	dur        time.Duration
	obs        []obs // every submission, in submit order per client
	before     counters
	after      counters
	appends    []time.Duration // Ingestor.Append timings
	commits    []time.Duration // when each append committed, since window start
	audits     int
	violated   int // pinned-snapshot audits that saw an appended batch
	ingestErrs []string
}

// runWindow drives the service closed-loop for dur from nClients client
// goroutines. Each client walks seeded permutations of the corpus, one
// fresh permutation per cycle, so every statement gets an equal share and
// two clients do not lock into a fixed phase. The window closes by
// draining: at the deadline clients stop submitting and in-flight
// statements finish; nothing is ever cancelled.
func runWindow(s *stack, nClients int, dur time.Duration, seed int64, resultsDir string) *windowResult {
	wd := newWatchdog(nClients+1, s.warmLat, resultsDir)
	defer wd.close()
	res := &windowResult{dur: dur}
	perClient := make([][]obs, nClients)
	runtime.GC() // start every window from a collected heap
	res.before = s.snapshot()
	origin := time.Now()
	deadline := origin.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			for {
				for _, i := range rng.Perm(len(s.stmts)) {
					if !time.Now().Before(deadline) {
						return
					}
					wd.started[c].Store(time.Now().UnixNano())
					o := s.submit(i, origin)
					wd.started[c].Store(0)
					perClient[c] = append(perClient[c], o)
				}
			}
		}(c)
	}
	if s.ingestor != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ingestDuring(res, origin, dur, &wd.started[nClients])
		}()
	}
	wg.Wait()
	// Engine goroutines of the last statements unwind just after their
	// result is delivered; give them a moment before counting leaks.
	for i := 0; i < 20 && runtime.NumGoroutine() > res.before.goroutines; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	res.after = s.snapshot()
	for _, po := range perClient {
		res.obs = append(res.obs, po...)
	}
	return res
}

// ingestDuring appends the withheld step batches evenly across the window
// and, after each commit, audits snapshot isolation: a raw join pinned to
// the pre-ingest version must keep returning the base cardinality.
func (s *stack) ingestDuring(res *windowResult, origin time.Time, dur time.Duration, inflight *atomic.Int64) {
	pinned := service.Query{Req: engine.Request{
		LeftTable: "T1", RightTable: "T2", JoinAttrs: []string{"x", "y", "z"},
		AsOf: baseVersion,
	}}
	want := int64(grid.X * grid.Y * grid.Z)
	interval := dur / time.Duration(len(s.batches)+1)
	for k, b := range s.batches {
		time.Sleep(time.Until(origin.Add(time.Duration(k+1) * interval)))
		inflight.Store(time.Now().UnixNano())
		t0 := time.Now()
		_, err := s.ingestor.Append(b)
		res.appends = append(res.appends, time.Since(t0))
		res.commits = append(res.commits, time.Since(origin))
		if err != nil {
			inflight.Store(0)
			res.ingestErrs = append(res.ingestErrs, "append: "+err.Error())
			continue
		}
		resp, err := s.svc.Submit(bg, pinned)
		inflight.Store(0)
		if err != nil {
			res.ingestErrs = append(res.ingestErrs, "pinned audit: "+err.Error())
			continue
		}
		res.audits++
		if resp.Result.Tuples != want {
			res.violated++
		}
	}
}
