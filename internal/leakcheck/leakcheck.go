// Package leakcheck is a dependency-free goroutine-leak check for tests:
// take a census of the live goroutines, run the code under test, then
// require that no creation site has more goroutines alive than before.
//
// Counting per creation site rather than comparing goroutine ids lets a
// pool replace a member (the TCP transport redials a connection it had to
// abandon, and the server starts a new handler for it) without that
// reading as a leak, while anything that only ever grows still does.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long Check waits for goroutines that are already
// unwinding (a cancelled fetch returning, a server handler finishing an
// exchange its client abandoned) to exit.
const settle = 2 * time.Second

// Check takes the census and returns the function that verifies it has
// not grown, failing t with the stacks at every site that has. Call the
// returned function on the goroutine that called Check, once everything
// the test started has been stopped:
//
//	defer leakcheck.Check(t)()
//
// It cannot tell goroutines of concurrently running tests apart, so it is
// for tests that do not call t.Parallel.
func Check(t testing.TB) func() {
	before := census()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(settle); ; time.Sleep(5 * time.Millisecond) {
			var grown strings.Builder
			for site, stacks := range census() {
				if len(stacks) > len(before[site]) {
					fmt.Fprintf(&grown, "%d alive (%d before) %s:\n\n%s\n\n",
						len(stacks), len(before[site]), site, strings.Join(stacks, "\n\n"))
				}
			}
			if grown.Len() == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutines leaked:\n%s", grown.String())
				return
			}
		}
	}
}

// census returns every goroutine's stack dump except the caller's, grouped
// by creation site (the dump's "created by" line).
func census() map[string][]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string][]string)
	// The dump lists the calling goroutine first.
	for _, dump := range strings.Split(strings.TrimSpace(string(buf)), "\n\n")[1:] {
		site := "not created by a go statement"
		if i := strings.LastIndex(dump, "\ncreated by "); i >= 0 {
			site, _, _ = strings.Cut(dump[i+1:], " in goroutine ")
			site, _, _ = strings.Cut(site, "\n")
		}
		out[site] = append(out[site], dump)
	}
	return out
}
