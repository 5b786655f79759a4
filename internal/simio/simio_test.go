package simio

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestThrottleUnlimited(t *testing.T) {
	tr := NewThrottle(0)
	start := time.Now()
	tr.Take(1 << 30)
	if time.Since(start) > 50*time.Millisecond {
		t.Error("unlimited throttle should not block")
	}
	var nilT *Throttle
	nilT.Take(100) // must not panic
	if nilT.Rate() != 0 || nilT.Taken() != 0 || nilT.BusyTime() != 0 {
		t.Error("nil throttle accessors should be zero")
	}
}

func TestThrottleRate(t *testing.T) {
	// 1 MB/s: taking 200 KB should cost about 200 ms.
	tr := NewThrottle(1 << 20)
	start := time.Now()
	tr.Take(200 << 10)
	elapsed := time.Since(start)
	want := 195 * time.Millisecond
	if elapsed < want {
		t.Errorf("Take returned after %v, want >= %v", elapsed, want)
	}
	if elapsed > 2*want {
		t.Errorf("Take took %v, way over expected %v", elapsed, want)
	}
	if tr.Taken() != 200<<10 {
		t.Errorf("Taken = %d", tr.Taken())
	}
}

func TestThrottleSerializesConcurrentRequests(t *testing.T) {
	// 4 goroutines × 50KB through a 1MB/s device ≈ 200ms total, because a
	// single device serializes.
	tr := NewThrottle(1 << 20)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Take(50 << 10)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 190*time.Millisecond {
		t.Errorf("concurrent Takes finished in %v; device should serialize to ~200ms", elapsed)
	}
	if got := tr.BusyTime(); got < 190*time.Millisecond {
		t.Errorf("BusyTime = %v", got)
	}
}

func TestThrottleReset(t *testing.T) {
	tr := NewThrottle(1024)
	tr.Reserve(1 << 20) // queue a big backlog without sleeping
	tr.Reset()
	start := time.Now()
	tr.Take(1) // should be nearly instant after reset
	if time.Since(start) > 100*time.Millisecond {
		t.Error("Reset did not clear backlog")
	}
	if tr.Taken() != 1 {
		t.Errorf("Taken after reset = %d", tr.Taken())
	}
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	if err := s.Put("a/b", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRange("a/b", 6, 5, nil)
	if err != nil || string(got) != "world" {
		t.Fatalf("ReadRange = %q, %v", got, err)
	}
	got, err = s.ReadRange("a/b", 6, -1, nil)
	if err != nil || string(got) != "world" {
		t.Fatalf("ReadRange to end = %q, %v", got, err)
	}
	if n, err := s.Size("a/b"); err != nil || n != 11 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := s.Append("a/b", []byte("!")); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Size("a/b"); n != 12 {
		t.Fatalf("Size after append = %d", n)
	}
	if err := s.Append("new", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil || len(names) != 2 || names[0] != "a/b" || names[1] != "new" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if _, err := s.ReadRange("missing", 0, 1, nil); err == nil {
		t.Error("expected error for missing object")
	}
	if err := s.Delete("new"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("new"); err != nil {
		t.Errorf("double delete should be nil, got %v", err)
	}
	if _, err := s.Size("new"); err == nil {
		t.Error("expected error for deleted object")
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, fs)
}

func TestFileStoreRejectsEscapingNames(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../x", "a/../../x", "/abs"} {
		if err := fs.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) should fail", bad)
		}
	}
}

func TestMemStoreReadRangeBounds(t *testing.T) {
	s := NewMemStore()
	s.Put("o", []byte("abcdef"))
	if _, err := s.ReadRange("o", -1, 2, nil); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := s.ReadRange("o", 4, 10, nil); err == nil {
		t.Error("overlong range should fail")
	}
	if got, err := s.ReadRange("o", 6, 0, nil); err != nil || len(got) != 0 {
		t.Errorf("empty range at end = %q, %v", got, err)
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	src := []byte("abc")
	s.Put("o", src)
	src[0] = 'Z'
	got, _ := s.ReadRange("o", 0, -1, nil)
	if string(got) != "abc" {
		t.Error("Put must copy input")
	}
	got[0] = 'Q'
	got2, _ := s.ReadRange("o", 0, -1, nil)
	if string(got2) != "abc" {
		t.Error("ReadRange must return a copy")
	}
}

func TestDiskCountsAndThrottles(t *testing.T) {
	d := NewDisk(NewMemStore(), 1<<20, 1<<20)
	payload := bytes.Repeat([]byte{7}, 100<<10)
	start := time.Now()
	if err := d.Put("obj", payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRange("obj", 0, -1, nil)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("ReadRange: %v", err)
	}
	elapsed := time.Since(start)
	// 100KB write + 100KB read at 1MB/s ≈ 195ms.
	if elapsed < 180*time.Millisecond {
		t.Errorf("disk ops finished in %v, too fast", elapsed)
	}
	if w, r := d.Counters.BytesWritten.Load(), d.Counters.BytesRead.Load(); w != int64(len(payload)) || r != int64(len(payload)) {
		t.Errorf("counters: written %d, read %d", w, r)
	}
}

func TestSharedDiskContention(t *testing.T) {
	// Two disks over one throttle pair (the NFS scenario): concurrent reads
	// take twice as long as one.
	store := NewMemStore()
	store.Put("o", bytes.Repeat([]byte{1}, 100<<10))
	read := NewThrottle(1 << 20)
	write := NewThrottle(1 << 20)
	d1 := NewSharedDisk(store, read, write)
	d2 := NewSharedDisk(store, read, write)
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range []*Disk{d1, d2} {
		wg.Add(1)
		go func(d *Disk) {
			defer wg.Done()
			if _, err := d.ReadRange("o", 0, -1, nil); err != nil {
				t.Error(err)
			}
		}(d)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 185*time.Millisecond {
		t.Errorf("shared reads finished in %v; want ~200ms serialization", elapsed)
	}
}

func TestNICTransfer(t *testing.T) {
	src := NewNIC(1<<20, nil)
	dst := NewNIC(1<<20, nil)
	start := time.Now()
	Transfer(src, dst, 100<<10)
	elapsed := time.Since(start)
	// Both NICs at 1MB/s serve 100KB concurrently: ~100ms, not 200ms.
	if elapsed < 90*time.Millisecond {
		t.Errorf("transfer took %v, want >= ~100ms", elapsed)
	}
	if elapsed > 180*time.Millisecond {
		t.Errorf("transfer took %v; endpoints should overlap, not serialize", elapsed)
	}
	if src.Counters.BytesSent.Load() != 100<<10 || dst.Counters.BytesRecv.Load() != 100<<10 {
		t.Error("transfer counters wrong")
	}
}

func TestTransferNilEndpoints(t *testing.T) {
	Transfer(nil, nil, 1<<20) // must not panic or block
	n := NewNIC(0, nil)
	Transfer(n, nil, 123)
	if n.Counters.BytesSent.Load() != 123 {
		t.Error("sent counter not updated")
	}
}

func TestPropThrottleTotalServiceTime(t *testing.T) {
	// Whatever the request pattern, the modeled completion time of the
	// last request is at least totalBytes/rate after the first request's
	// start — the device never serves faster than its rate.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := float64(1+r.Intn(100)) * 1e6
		tr := NewThrottle(rate)
		var total int64
		start := time.Now()
		var last time.Time
		for i := 0; i < 50; i++ {
			n := int64(1 + r.Intn(1<<16))
			total += n
			if d := tr.Reserve(n); d.After(last) {
				last = d
			}
		}
		minDur := time.Duration(float64(total) / rate * float64(time.Second))
		if got := last.Sub(start); got < minDur-time.Millisecond {
			t.Logf("last deadline %v after start; need >= %v for %d bytes at %.0f B/s",
				got, minDur, total, rate)
			return false
		}
		return tr.Taken() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
