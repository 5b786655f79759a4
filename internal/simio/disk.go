package simio

import (
	"errors"
	"sync/atomic"
	"time"
)

// PartialWriteError marks an injected short write: the device accepted a
// prefix of the data and then failed. Disk.Append honors it by really
// persisting half the payload before returning the error, so recovery
// code is exercised against genuinely truncated files rather than
// cleanly absent ones.
type PartialWriteError struct{ Rule string }

func (e *PartialWriteError) Error() string {
	return "simio: short write (fault " + e.Rule + ")"
}

// Counters accumulates byte traffic for cost-model validation. All fields
// are updated atomically, only count up, and may be read while a run is in
// progress: a run's traffic is the difference of two snapshots.
type Counters struct {
	BytesRead    atomic.Int64
	BytesWritten atomic.Int64
	BytesSent    atomic.Int64
	BytesRecv    atomic.Int64
}

// Disk models one storage device: an object store plus read/write bandwidth
// throttles and traffic counters. Several Disk values may share the same
// throttles and store — that is exactly the paper's shared-NFS-server
// scenario (Figure 9), where one server's disk serializes everybody's I/O.
type Disk struct {
	store Store
	read  *Throttle
	write *Throttle
	// Owner identifies the node using this disk handle, feeding the
	// shared-server contention model (distinct owners contending on one
	// throttle pay the thrash multiplier).
	Owner    int
	Counters Counters
	// Fault, when set, is consulted before every operation with "read" or
	// "write"; a non-nil return fails the operation without touching the
	// store (chaos injection — a crashed or flaky device).
	Fault func(op string) error
}

// NewDisk returns a disk over the given store with the given bandwidths in
// bytes/second (0 = unlimited).
func NewDisk(store Store, readBw, writeBw float64) *Disk {
	return &Disk{store: store, read: NewThrottle(readBw), write: NewThrottle(writeBw)}
}

// NewSharedDisk returns a disk over the given store using the caller's
// throttles, so several disks can contend on one physical device.
func NewSharedDisk(store Store, read, write *Throttle) *Disk {
	return &Disk{store: store, read: read, write: write}
}

// Store exposes the underlying store for administrative (untimed) access,
// e.g. dataset generation, which the paper excludes from measured costs.
func (d *Disk) Store() Store { return d.store }

// ReadThrottle returns the read-bandwidth throttle (shared-disk detection).
func (d *Disk) ReadThrottle() *Throttle { return d.read }

// WriteThrottle returns the write-bandwidth throttle.
func (d *Disk) WriteThrottle() *Throttle { return d.write }

// ReadRange reads object bytes through the read throttle into dst[:0]
// (grown if short; nil allocates), as Store.ReadRange.
func (d *Disk) ReadRange(name string, off, n int64, dst []byte) ([]byte, error) {
	if d.Fault != nil {
		if err := d.Fault("read"); err != nil {
			return nil, err
		}
	}
	data, err := d.store.ReadRange(name, off, n, dst)
	if err != nil {
		return nil, err
	}
	Wait(d.read.ReserveFrom(d.Owner, int64(len(data))))
	d.Counters.BytesRead.Add(int64(len(data)))
	return data, nil
}

// Put writes an object through the write throttle.
func (d *Disk) Put(name string, data []byte) error {
	if d.Fault != nil {
		if err := d.Fault("write"); err != nil {
			return err
		}
	}
	Wait(d.write.ReserveFrom(d.Owner, int64(len(data))))
	if err := d.store.Put(name, data); err != nil {
		return err
	}
	d.Counters.BytesWritten.Add(int64(len(data)))
	return nil
}

// Append extends an object through the write throttle. An injected
// PartialWriteError persists the first half of the payload before the
// error surfaces — a short write that really truncates.
func (d *Disk) Append(name string, data []byte) error {
	if d.Fault != nil {
		if err := d.Fault("write"); err != nil {
			var pw *PartialWriteError
			if errors.As(err, &pw) && len(data) > 0 {
				half := data[:len(data)/2]
				Wait(d.write.ReserveFrom(d.Owner, int64(len(half))))
				if aerr := d.store.Append(name, half); aerr == nil {
					d.Counters.BytesWritten.Add(int64(len(half)))
				}
			}
			return err
		}
	}
	Wait(d.write.ReserveFrom(d.Owner, int64(len(data))))
	if err := d.store.Append(name, data); err != nil {
		return err
	}
	d.Counters.BytesWritten.Add(int64(len(data)))
	return nil
}

// Size returns an object's size (metadata access: untimed).
func (d *Disk) Size(name string) (int64, error) { return d.store.Size(name) }

// Delete removes an object (untimed, like unlink).
func (d *Disk) Delete(name string) error { return d.store.Delete(name) }

// NIC models one node's network interface as a byte-rate throttle with
// traffic counters. A transfer occupies both endpoints simultaneously, so
// Transfer reserves time on both NICs and waits for the later deadline.
type NIC struct {
	throttle *Throttle
	Counters *Counters
}

// NewNIC returns a NIC with the given bandwidth in bytes/second
// (0 = unlimited), attributing traffic to the given counters (may be nil).
func NewNIC(bw float64, counters *Counters) *NIC {
	if counters == nil {
		counters = &Counters{}
	}
	return &NIC{throttle: NewThrottle(bw), Counters: counters}
}

// Throttle exposes the underlying throttle (for utilization accounting).
func (n *NIC) Throttle() *Throttle { return n.throttle }

// Transfer moves size bytes from src to dst, blocking for the modeled
// duration: the transfer completes when both endpoints have serviced it.
func Transfer(src, dst *NIC, size int64) {
	var later time.Time
	if src != nil {
		if d := src.throttle.Reserve(size); d.After(later) {
			later = d
		}
		src.Counters.BytesSent.Add(size)
	}
	if dst != nil {
		if d := dst.throttle.Reserve(size); d.After(later) {
			later = d
		}
		dst.Counters.BytesRecv.Add(size)
	}
	Wait(later)
}
