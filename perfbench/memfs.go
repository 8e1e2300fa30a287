package main

import (
	"bytes"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// memFS is an in-memory store.FS. The benchmark's stores run on it so
// that lookup-warm measures the store's own work (encoding, checksums,
// locking, the publish sequence) and not the host disk: on the shared
// 2-vCPU host, ext4 metadata and flush latency made identical passes
// differ by up to 2x between runs, and no change to this repository
// moves that short of dropping a flush, which the store's crash tests
// forbid. Safe for concurrent use.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	data []byte
	mod  time.Time
}

func newMemFS() *memFS { return &memFS{files: map[string]*memFile{}} }

func openStore(fsys *memFS, dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{FS: fsys, Logf: logf})
}

func notExist(op, name string) error { return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist} }

// MkdirAll is a no-op: directories exist implicitly as path prefixes.
func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (store.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if flag&os.O_CREATE == 0 {
		if !ok {
			return nil, notExist("open", name)
		}
		return &memHandle{r: bytes.NewReader(f.data)}, nil
	}
	if ok && flag&os.O_EXCL != 0 {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	}
	f = &memFile{mod: time.Now()}
	m.files[name] = f
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, notExist("stat", name)
	}
	return memInfo{name: path.Base(name), size: int64(len(f.data)), mod: f.mod}, nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var out []fs.DirEntry
	for name, f := range m.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.Contains(rest, "/") {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: rest, size: int64(len(f.data)), mod: f.mod}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) SyncDir(string) error { return nil }

// memHandle is an open memFile: a reader, or a writer appending to it.
type memHandle struct {
	r  *bytes.Reader
	fs *memFS
	f  *memFile
}

func (h *memHandle) Read(p []byte) (int, error) {
	if h.r == nil {
		return 0, fs.ErrInvalid
	}
	return h.r.Read(p)
}

func (h *memHandle) Write(p []byte) (int, error) {
	if h.f == nil {
		return 0, fs.ErrInvalid
	}
	h.fs.mu.Lock()
	h.f.data = append(h.f.data, p...)
	h.f.mod = time.Now()
	h.fs.mu.Unlock()
	return len(p), nil
}

func (h *memHandle) Sync() error  { return nil }
func (h *memHandle) Close() error { return nil }

type memInfo struct {
	name string
	size int64
	mod  time.Time
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
