package main

import (
	"sync"
	"time"

	"tnkd/internal/faultfs"
)

// meterFS is a faultfs.FS that times and counts every durability
// operation the ingest daemon performs through it: the store write,
// fsync and rename path seen from outside the daemon.
type meterFS struct {
	base faultfs.FS

	mu         sync.Mutex
	writeBytes int64
	writeTime  time.Duration
	syncs      int64
	syncTime   time.Duration
	renames    int64
}

// fsCounts is a snapshot of a meterFS's tallies.
type fsCounts struct {
	writeBytes int64
	writeTime  time.Duration
	syncs      int64
	syncTime   time.Duration
	renames    int64
}

func newMeterFS(base faultfs.FS) *meterFS { return &meterFS{base: base} }

func (m *meterFS) counts() fsCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return fsCounts{m.writeBytes, m.writeTime, m.syncs, m.syncTime, m.renames}
}

func (m *meterFS) wrote(n int, d time.Duration) {
	m.mu.Lock()
	m.writeBytes += int64(n)
	m.writeTime += d
	m.mu.Unlock()
}

func (m *meterFS) synced(d time.Duration) {
	m.mu.Lock()
	m.syncs++
	m.syncTime += d
	m.mu.Unlock()
}

func (m *meterFS) Create(name string) (faultfs.File, error) {
	f, err := m.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &meterFile{f: f, m: m}, nil
}

func (m *meterFS) Append(name string) (faultfs.File, error) {
	f, err := m.base.Append(name)
	if err != nil {
		return nil, err
	}
	return &meterFile{f: f, m: m}, nil
}

func (m *meterFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	m.renames++
	m.mu.Unlock()
	return m.base.Rename(oldpath, newpath)
}

func (m *meterFS) Remove(name string) error { return m.base.Remove(name) }

func (m *meterFS) Truncate(name string, size int64) error { return m.base.Truncate(name, size) }

func (m *meterFS) SyncDir(dir string) error {
	t := time.Now()
	err := m.base.SyncDir(dir)
	m.synced(time.Since(t))
	return err
}

type meterFile struct {
	f faultfs.File
	m *meterFS
}

func (x *meterFile) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := x.f.Write(b)
	x.m.wrote(n, time.Since(t))
	return n, err
}

func (x *meterFile) WriteAt(b []byte, off int64) (int, error) {
	t := time.Now()
	n, err := x.f.WriteAt(b, off)
	x.m.wrote(n, time.Since(t))
	return n, err
}

func (x *meterFile) Sync() error {
	t := time.Now()
	err := x.f.Sync()
	x.m.synced(time.Since(t))
	return err
}

func (x *meterFile) Close() error { return x.f.Close() }
