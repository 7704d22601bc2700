package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the journal's window onto a filesystem. The daemon runs on the
// real one (OS); tests interpose MemFS to inject write/fsync failures
// and to take crash-consistent images (only synced bytes survive, plus
// an arbitrary torn prefix of what was still buffered) without killing
// the process. Paths use forward slashes; implementations may treat
// them as opaque keys.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// ReadFile returns name's full contents.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists the base names of the files directly under dir,
	// sorted. A missing directory is an empty listing, not an error.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Truncate cuts name down to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
}

// File is an open journal file: sequential writes, durability on Sync.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) Create(name string) (File, error)       { return os.Create(name) }
func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) MkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// MemFS is an in-memory FS for fault-injection tests. Every file tracks
// how many of its bytes have been fsynced; Crash returns an image of
// what a machine crash would leave behind. SetWriteErr and SetSyncErr
// turn subsequent writes or syncs into failures, driving the journal's
// degraded-mode paths without touching a real disk.
type MemFS struct {
	mu       sync.Mutex
	files    map[string]*memData
	writeErr error
	syncErr  error
	// Syncs counts File.Sync calls (group-commit batching assertions).
	syncs int
}

type memData struct {
	data   []byte
	synced int // bytes guaranteed to survive a crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memData)} }

// SetWriteErr makes every subsequent Write (and Create/OpenAppend of
// new files) fail with err. nil restores normal operation.
//
//lint:allow unusedexport fault-injection seam of the crash and degraded-mode tests
func (m *MemFS) SetWriteErr(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeErr = err
}

// SetSyncErr makes every subsequent Sync fail with err.
//
//lint:allow unusedexport fault-injection seam of the crash and degraded-mode tests
func (m *MemFS) SetSyncErr(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncErr = err
}

// Syncs reports how many Sync calls the filesystem has served.
//
//lint:allow unusedexport fault-injection seam of the crash and degraded-mode tests
func (m *MemFS) Syncs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Crash returns the filesystem image a hard crash would leave: synced
// bytes survive; of each file's unsynced tail, at most torn bytes make
// it to disk (a torn write). The original is untouched, so one run can
// be crash-imaged at many points.
//
//lint:allow unusedexport fault-injection seam of the crash and degraded-mode tests
func (m *MemFS) Crash(torn int) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMemFS()
	for name, f := range m.files {
		keep := f.synced
		if extra := len(f.data) - f.synced; extra > 0 && torn > 0 {
			if extra > torn {
				extra = torn
			}
			keep += extra
		}
		img.files[name] = &memData{data: append([]byte(nil), f.data[:keep]...), synced: keep}
	}
	return img
}

func (m *MemFS) open(name string, truncate bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.writeErr != nil {
		return nil, m.writeErr
	}
	f, ok := m.files[name]
	if !ok {
		f = &memData{}
		m.files[name] = f
	}
	if truncate {
		f.data = f.data[:0]
		f.synced = 0
	}
	return &memFile{fs: m, d: f}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) { return m.open(name, false) }
func (m *MemFS) Create(name string) (File, error)     { return m.open(name, true) }

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: %s: %w", oldname, os.ErrNotExist)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) MkdirAll(dir string) error { return nil }

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	if int(size) < len(f.data) {
		f.data = f.data[:size]
	}
	if f.synced > len(f.data) {
		f.synced = len(f.data)
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir + "/"
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir || (len(name) > len(prefix) && name[:len(prefix)] == prefix) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// memFile is an open handle onto a MemFS entry.
type memFile struct {
	fs *MemFS
	d  *memData
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.writeErr != nil {
		return 0, f.fs.writeErr
	}
	f.d.data = append(f.d.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	if f.fs.syncErr != nil {
		return f.fs.syncErr
	}
	f.d.synced = len(f.d.data)
	return nil
}

func (f *memFile) Close() error { return nil }
