package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sciview/internal/query"
	"sciview/internal/trace"
)

// span is one timed region of one traced statement. Spans of a statement
// share Stmt; Parent is the span that caused it (0 for the statement
// root). Times are nanoseconds, Start counted from the start of the pass.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"` // layer.operation
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	// SelfNs is the span's duration minus what its children on the same
	// thread of control cover. Engine events (fetch, build, probe, ship,
	// scratch I/O) run on the engine's goroutines beside the consumer, so
	// they keep their whole duration and take nothing from their parent.
	SelfNs int64 `json:"self_ns"`
	Bytes  int64 `json:"bytes,omitempty"`
	Items  int64 `json:"items,omitempty"`
}

// Names of the harness's own spans and of the service's two events.
const (
	spanStmt   = "bench.stmt"
	spanCheck  = "bench.check"
	spanParse  = "query.parse"
	spanLower  = "planner.lower"
	spanSubmit = "service.submit"
	spanQueue  = "service.queue"
	spanRun    = "service.run"
)

// engineSpan names the recorder's engine events; kinds missing here are
// left out of the account. A prefetch event wraps the fetch event of the
// same sub-table, so counting it would count the transfer twice.
var engineSpan = map[trace.Kind]string{
	trace.KindFetch:      "cluster.fetch",
	trace.KindBuild:      "hashjoin.build",
	trace.KindProbe:      "hashjoin.probe",
	trace.KindShip:       "gh.ship",
	trace.KindSpill:      "scratch.write",
	trace.KindBucketRead: "scratch.read",
	trace.KindRecover:    "engine.recover",
}

// onePasses walks the corpus from one client, in corpus order, 2·reps
// times: untraced and traced passes alternate, so neither side of the
// tracing-overhead comparison runs on a warmer system. A traced pass
// turns the executor's recorder on and records spans: the harness mints
// the statement id and times its own calls — a replica query.Parse, a
// replica Executor.Lower, then Service.SubmitSQL and the result check —
// and adopts the recorder's events of that statement. One client means
// every event between a statement's start and end belongs to it.
//
// The returned window holds every submission of both kinds (the exact
// per-statement counts are the same traced or not); plainLat and
// tracedLat are the summed submit latencies of each kind.
func onePasses(s *stack, reps int, resultsDir string) (res *windowResult, spans []span, plainLat, tracedLat time.Duration) {
	wd := newWatchdog(1, s.warmLat, resultsDir)
	defer wd.close()
	rec := trace.New()
	defer func() { s.ex.Trace = nil }()
	res = &windowResult{}
	res.before = s.snapshot()
	origin := time.Now()
	since := func(t time.Time) int64 { return int64(t.Sub(origin)) }
	stmtID := 0
	for pass := 0; pass < 2*reps; pass++ {
		traced := pass%2 == 1
		s.ex.Trace = nil
		if traced {
			s.ex.Trace = rec
		}
		for i, st := range s.stmts {
			t0 := time.Now()
			var t1, t2 time.Time
			if traced {
				rec.Reset()
				// Replica calls, timed only: the submit below reports
				// any error these would.
				_, _ = query.Parse(st.sql)
				t1 = time.Now()
				_, _ = s.ex.Lower(st.sql)
				t2 = time.Now()
			}
			wd.started[0].Store(time.Now().UnixNano())
			o := s.submit(i, origin)
			wd.started[0].Store(0)
			res.obs = append(res.obs, o)
			if !traced {
				plainLat += o.lat
				continue
			}
			tracedLat += o.lat
			end := time.Now()
			stmtID++
			submitEnd := int64(o.begin + o.lat)
			ts := traceStmt{
				root:   span{Name: spanStmt, Detail: st.sql, StartNs: since(t0), DurNs: int64(end.Sub(t0))},
				parse:  span{Name: spanParse, StartNs: since(t0), DurNs: int64(t1.Sub(t0))},
				lower:  span{Name: spanLower, StartNs: since(t1), DurNs: int64(t2.Sub(t1))},
				submit: span{Name: spanSubmit, StartNs: int64(o.begin), DurNs: int64(o.lat)},
				check:  span{Name: spanCheck, StartNs: submitEnd, DurNs: since(end) - submitEnd},
			}
			for _, e := range rec.Events() {
				sp := span{Detail: e.Detail, StartNs: since(e.Start), DurNs: int64(e.Dur), Bytes: e.Bytes, Items: e.Items}
				switch e.Kind {
				case trace.KindQueue:
					sp.Name = spanQueue
					ts.queue = &sp
				case trace.KindQuery:
					sp.Name = spanRun
					ts.run = &sp
				case trace.KindOperator:
					sp.Name = "plan." + opKind(e.Detail)
					ts.ops = append(ts.ops, sp)
				default:
					if name, ok := engineSpan[e.Kind]; ok {
						sp.Name = name
						ts.engine = append(ts.engine, sp)
					}
				}
			}
			spans = append(spans, ts.account(stmtID, len(spans))...)
		}
	}
	res.dur = time.Since(origin)
	res.after = s.snapshot()
	return res, spans, plainLat, tracedLat
}

// traceStmt is one traced statement's spans before they are linked.
type traceStmt struct {
	root, parse, lower, submit, check span
	queue, run                        *span  // the service's events; nil if the submit failed early
	ops                               []span // plan operators
	engine                            []span // engine events
}

// account links one statement's spans into a tree and computes self
// times. The structure is known, so it is built, not inferred:
//
//	bench.stmt → query.parse, planner.lower, service.submit, bench.check
//	service.submit → service.queue, service.run
//	service.run → the operator chain, root operator first
//	innermost operator → the engine's events
//
// An operator event carries the operator's Busy time, which includes its
// child's (plan/operator.go), and a synthetic start; so the chain is
// ordered by operator kind and an operator's self time is its Busy minus
// its child's. The innermost operator's self time is the time the
// consumer sat blocked on it — for a join, on the engine.
func (ts *traceStmt) account(stmtID, base int) []span {
	var out []span
	add := func(sp span, parent int) int {
		sp.ID, sp.Parent, sp.Stmt = base+len(out)+1, parent, stmtID
		out = append(out, sp)
		return sp.ID
	}
	self := func(dur int64, children ...int64) int64 {
		for _, c := range children {
			dur -= c
		}
		return max(dur, 0)
	}
	ts.root.SelfNs = self(ts.root.DurNs, ts.parse.DurNs, ts.lower.DurNs, ts.submit.DurNs, ts.check.DurNs)
	root := add(ts.root, 0)
	ts.parse.SelfNs, ts.lower.SelfNs, ts.check.SelfNs = ts.parse.DurNs, ts.lower.DurNs, ts.check.DurNs
	add(ts.parse, root)
	add(ts.lower, root)
	var queueDur, runDur int64
	if ts.queue != nil {
		queueDur = ts.queue.DurNs
	}
	if ts.run != nil {
		runDur = ts.run.DurNs
	}
	ts.submit.SelfNs = self(ts.submit.DurNs, queueDur, runDur)
	parent := add(ts.submit, root)
	if ts.queue != nil {
		ts.queue.SelfNs = queueDur
		add(*ts.queue, parent)
	}
	if ts.run != nil {
		rank := func(name string) int {
			for r, k := range planKinds {
				if name == "plan."+k {
					return r
				}
			}
			return -1
		}
		sort.SliceStable(ts.ops, func(a, b int) bool { return rank(ts.ops[a].Name) > rank(ts.ops[b].Name) })
		var rootBusy int64
		if len(ts.ops) > 0 {
			rootBusy = ts.ops[0].DurNs
		}
		ts.run.SelfNs = self(runDur, rootBusy)
		parent = add(*ts.run, parent)
		for i, op := range ts.ops {
			op.SelfNs = op.DurNs
			if i+1 < len(ts.ops) {
				op.SelfNs = self(op.DurNs, ts.ops[i+1].DurNs)
			}
			parent = add(op, parent)
		}
		for _, e := range ts.engine {
			e.SelfNs = e.DurNs
			add(e, parent)
		}
	}
	add(ts.check, root)
	return out
}

// Groups of span names the trace.*_self_frac metrics report.
var traceGroups = map[string][]string{
	"frontend": {spanParse, spanLower},
	"service":  {spanSubmit, spanQueue},
	"plan":     {"plan.scan", "plan.join", "plan.filter", "plan.project", "plan.aggregate", "plan.sort", "plan.limit"},
	"fetch":    {"cluster.fetch"},
	"hashjoin": {"hashjoin.build", "hashjoin.probe"},
	"ship":     {"gh.ship"},
	"scratch":  {"scratch.write", "scratch.read"},
	"check":    {spanCheck},
}

// spanMetrics turns the traced pass's spans into per-layer metrics.
//
// The trace.*_self_frac metrics are shares of traced statement wall clock
// (the bench.stmt spans) and are wall-additive: harness, service and
// operator self times add up along the one consumer thread, and a join
// operator's self time — the consumer blocked on the engine — is handed
// to the engine's events of that statement in proportion to their
// durations, because those ran concurrently and cannot be summed against
// the wall. What is left over is the self time of the two pure
// containers, bench.stmt and service.run; bench.account_closure_frac is
// one minus that share.
func spanMetrics(spans []span, m map[string]metric) {
	self := map[string]int64{}   // wall-additive self time by span name
	dur := map[string]int64{}    // summed duration by span name
	opSelf := map[string]int64{} // operators' own self time, before the join's is handed on
	stmts := 0
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].Stmt == spans[lo].Stmt {
			hi++
		}
		stmts++
		var lower, submitSelf, joinSelf, engineTotal int64
		engine := map[string]int64{}
		for _, sp := range spans[lo:hi] {
			dur[sp.Name] += sp.DurNs
			switch {
			case sp.Name == spanLower:
				lower = sp.DurNs
			case sp.Name == spanSubmit:
				submitSelf = sp.SelfNs
			case sp.Name == "plan.join":
				joinSelf = sp.SelfNs
				opSelf[sp.Name] += sp.SelfNs
			case engineNames[sp.Name]:
				engine[sp.Name] += sp.DurNs
				engineTotal += sp.DurNs
			default:
				self[sp.Name] += sp.SelfNs
				opSelf[sp.Name] += sp.SelfNs
			}
		}
		// The service lowers the statement again before admitting it;
		// the replica call sizes that, and it is planner time.
		lowerIn := min(lower, submitSelf)
		self[spanLower] += lower + lowerIn
		self[spanSubmit] += submitSelf - lowerIn
		if engineTotal == 0 {
			self["plan.join"] += joinSelf
		}
		for name, ns := range engine {
			self[name] += int64(float64(joinSelf) * float64(ns) / float64(engineTotal))
		}
		lo = hi
	}
	per := func(ns int64, unit time.Duration) float64 {
		if stmts == 0 {
			return 0
		}
		return float64(ns) / float64(unit) / float64(stmts)
	}
	m["query.parse_us"] = metric{per(dur[spanParse], time.Microsecond), "us"}
	m["planner.lower_us"] = metric{per(dur[spanLower], time.Microsecond), "us"}
	m["service.submit_self_us"] = metric{per(self[spanSubmit], time.Microsecond), "us"}
	for _, k := range planKinds {
		m["plan."+k+"_self_ms"] = metric{per(opSelf["plan."+k], time.Millisecond), "ms"}
	}
	wall := dur[spanStmt]
	frac := func(ns int64) float64 {
		if wall == 0 {
			return 0
		}
		return float64(ns) / float64(wall)
	}
	for group, names := range traceGroups {
		var ns int64
		for _, name := range names {
			ns += self[name]
		}
		m["trace."+group+"_self_frac"] = metric{frac(ns), "ratio"}
	}
	m["bench.account_closure_frac"] = metric{1 - frac(self[spanStmt]+self[spanRun]), "ratio"}
}

// engineNames is the set of engine span names.
var engineNames = func() map[string]bool {
	set := map[string]bool{}
	for _, name := range engineSpan {
		set[name] = true
	}
	return set
}()

// writeSpans writes the spans to <dir>/spans-<workload>.jsonl.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
