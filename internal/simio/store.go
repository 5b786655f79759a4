package simio

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the byte-object storage beneath a simulated disk. Objects are
// named blobs supporting ranged reads (chunks are file segments identified
// by offset and size) and appends (Grace Hash spill buckets grow by
// appending partitions).
type Store interface {
	// Put creates or replaces an object.
	Put(name string, data []byte) error
	// Append extends an object, creating it if absent.
	Append(name string, data []byte) error
	// ReadRange reads n bytes at offset off into dst[:0], growing dst if
	// it is too short, and returns the filled slice; dst may be nil.
	// n < 0 reads to the end.
	ReadRange(name string, off, n int64, dst []byte) ([]byte, error)
	// Size returns the object's length in bytes.
	Size(name string) (int64, error)
	// Delete removes an object; deleting a missing object is not an error.
	Delete(name string) error
	// List returns all object names, sorted.
	List() ([]string, error)
}

// pageSize is MemStore's allocation unit: an object is a list of pages,
// so appending fills the last page and never copies what is already
// stored.
const pageSize = 64 << 10

type page = [pageSize]byte

// pagePool recycles the pages of deleted and replaced objects: scratch
// files are created and deleted statement after statement.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// memObject is one MemStore object: size bytes across its pages, every
// page full but the last.
type memObject struct {
	pages []*page
	size  int64
}

// write appends data, filling the last page before taking a new one.
func (o *memObject) write(data []byte) {
	for len(data) > 0 {
		at := int(o.size % pageSize)
		if at == 0 {
			o.pages = append(o.pages, pagePool.Get().(*page))
		}
		n := copy(o.pages[len(o.pages)-1][at:], data)
		data = data[n:]
		o.size += int64(n)
	}
}

// free returns the object's pages to the pool.
func (o *memObject) free() {
	for _, p := range o.pages {
		pagePool.Put(p)
	}
	o.pages, o.size = nil, 0
}

// MemStore is an in-memory Store, the default substrate for tests and
// benchmarks (chunk bytes are still real bytes; only the medium is RAM).
type MemStore struct {
	mu      sync.RWMutex
	objects map[string]*memObject
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string]*memObject)}
}

// Put implements Store.
func (m *MemStore) Put(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.objects[name]; old != nil {
		old.free()
	}
	obj := &memObject{}
	obj.write(data)
	m.objects[name] = obj
	return nil
}

// Append implements Store.
func (m *MemStore) Append(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	obj := m.objects[name]
	if obj == nil {
		obj = &memObject{}
		m.objects[name] = obj
	}
	obj.write(data)
	return nil
}

// ReadRange implements Store.
func (m *MemStore) ReadRange(name string, off, n int64, dst []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	obj, ok := m.objects[name]
	if !ok {
		return nil, fmt.Errorf("simio: object %q not found", name)
	}
	if off < 0 || off > obj.size {
		return nil, fmt.Errorf("simio: offset %d out of range for %q (%d bytes)", off, name, obj.size)
	}
	end := obj.size
	if n >= 0 {
		end = off + n
		if end > obj.size {
			return nil, fmt.Errorf("simio: range [%d,%d) exceeds %q (%d bytes)", off, end, name, obj.size)
		}
	}
	out := grow(dst, int(end-off))
	for w := out; len(w) > 0; {
		c := copy(w, obj.pages[off/pageSize][off%pageSize:])
		w = w[c:]
		off += int64(c)
	}
	return out, nil
}

// grow returns dst resized to n bytes, reallocated only if it is too
// short.
func grow(dst []byte, n int) []byte {
	if cap(dst) < n {
		return make([]byte, n)
	}
	return dst[:n]
}

// Size implements Store.
func (m *MemStore) Size(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	obj, ok := m.objects[name]
	if !ok {
		return 0, fmt.Errorf("simio: object %q not found", name)
	}
	return obj.size, nil
}

// Delete implements Store.
func (m *MemStore) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if obj := m.objects[name]; obj != nil {
		obj.free()
		delete(m.objects, name)
	}
	return nil
}

// List implements Store.
func (m *MemStore) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.objects))
	for n := range m.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// FileStore is a Store backed by real files under a directory, used by the
// command-line tools so generated datasets persist across runs.
type FileStore struct {
	dir string
}

// NewFileStore returns a store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simio: creating store dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// path maps an object name to a file path, rejecting names that escape the
// store directory.
func (f *FileStore) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "..") || filepath.IsAbs(name) {
		return "", fmt.Errorf("simio: invalid object name %q", name)
	}
	return filepath.Join(f.dir, filepath.FromSlash(name)), nil
}

// Put implements Store.
func (f *FileStore) Put(name string, data []byte) error {
	p, err := f.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// Append implements Store.
func (f *FileStore) Append(name string, data []byte) error {
	p, err := f.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	file, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := file.Write(data)
	cerr := file.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadRange implements Store.
func (f *FileStore) ReadRange(name string, off, n int64, dst []byte) ([]byte, error) {
	p, err := f.path(name)
	if err != nil {
		return nil, err
	}
	file, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if n < 0 {
		fi, err := file.Stat()
		if err != nil {
			return nil, err
		}
		n = fi.Size() - off
	}
	buf := grow(dst, int(n))
	if _, err := file.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("simio: reading %q [%d,%d): %w", name, off, off+n, err)
	}
	return buf, nil
}

// Size implements Store.
func (f *FileStore) Size(name string) (int64, error) {
	p, err := f.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Delete implements Store.
func (f *FileStore) Delete(name string) error {
	p, err := f.path(name)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements Store.
func (f *FileStore) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(f.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, err := filepath.Rel(f.dir, p)
			if err != nil {
				return err
			}
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}
