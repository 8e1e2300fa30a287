package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// FormatVersion is the on-disk entry format. Bumping it orphans old
// entries (they read as misses and are overwritten on the next Put).
const FormatVersion = 2

// entryFormat is the wire frame family of entry files.
var entryFormat = wire.NewFormat("coopstor", FormatVersion)

// Options parameterise Open. The zero value is production defaults.
type Options struct {
	// FS substitutes the filesystem (fault injection); OSFS if nil.
	FS FS
	// Logf receives the store's once-per-condition warnings; stderr if
	// nil. The store never logs on the success path.
	Logf func(format string, args ...any)
	// LockTimeout bounds how long a writer waits on a live lock before
	// degrading; 5s if zero.
	LockTimeout time.Duration
	// StaleAge is the age past which an unreadable/torn lockfile is
	// reclaimed; 30s if zero.
	StaleAge time.Duration
	// MaxFaults is how many consecutive store faults disable the disk
	// layer entirely; 4 if zero.
	MaxFaults int
	// MaxQuarantine caps how many files quarantine/ may hold: the
	// oldest beyond the cap are reaped (counted in Stats.Reaped) so a
	// recurring corruption source cannot grow the directory without
	// bound. 64 if zero; negative keeps everything.
	MaxQuarantine int
}

// Stats are the store's observability counters (satellite: corruption
// observability). Quarantine increments exactly once per corrupt entry
// — the entry is moved aside on detection, so it can never be counted
// again.
type Stats struct {
	Hits               uint64
	Misses             uint64
	Writes             uint64
	WriteSkips         uint64
	CorruptQuarantined uint64
	// Reaped counts quarantined files deleted by the MaxQuarantine cap
	// (this process only; other processes sharing the directory keep
	// their own count).
	Reaped   uint64
	Faults   uint64
	Degraded bool
}

func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d writes=%d write-skips=%d corrupt-quarantined=%d reaped=%d faults=%d degraded=%v",
		s.Hits, s.Misses, s.Writes, s.WriteSkips, s.CorruptQuarantined, s.Reaped, s.Faults, s.Degraded)
}

// Store is a content-addressed persistent result cache. All methods are
// safe for concurrent use by any number of goroutines and processes
// sharing one directory. Get and Put never fail the caller: every
// fault is absorbed by the degradation ladder (quarantine the entry →
// skip the key → disable the store) and surfaces only in Stats and a
// single log line per condition.
type Store struct {
	dir           string
	fs            FS
	logf          func(format string, args ...any)
	lockTimeout   time.Duration
	staleAge      time.Duration
	maxFaults     int
	maxQuarantine int

	seq         atomic.Uint64
	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	writeSkips  atomic.Uint64
	corrupt     atomic.Uint64
	reaped      atomic.Uint64
	faults      atomic.Uint64
	consecutive atomic.Int64
	disabled    atomic.Bool

	badKeys sync.Map // keys whose disk layer is off for this process
	held    sync.Map // lockfile paths this process currently holds

	warnMu sync.Mutex
	warned map[string]bool
}

// Open creates (or reopens) the store rooted at dir. An error here
// means the directory is unusable; callers are expected to log it once
// and run storeless rather than abort.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:           dir,
		fs:            opts.FS,
		logf:          opts.Logf,
		lockTimeout:   opts.LockTimeout,
		staleAge:      opts.StaleAge,
		maxFaults:     opts.MaxFaults,
		maxQuarantine: opts.MaxQuarantine,
		warned:        make(map[string]bool),
	}
	if s.fs == nil {
		s.fs = OSFS{}
	}
	if s.logf == nil {
		s.logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if s.lockTimeout == 0 {
		s.lockTimeout = 5 * time.Second
	}
	if s.staleAge == 0 {
		s.staleAge = 30 * time.Second
	}
	if s.maxFaults == 0 {
		s.maxFaults = 4
	}
	if s.maxQuarantine == 0 {
		s.maxQuarantine = 64
	}
	for _, d := range []string{dir, s.sub("entries"), s.sub("tmp"), s.sub("quarantine"), s.sub("locks")} {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	s.sweepTmp()
	s.reapQuarantine()
	return s, nil
}

func (s *Store) sub(name string) string { return filepath.Join(s.dir, name) }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		Writes:             s.writes.Load(),
		WriteSkips:         s.writeSkips.Load(),
		CorruptQuarantined: s.corrupt.Load(),
		Reaped:             s.reaped.Load(),
		Faults:             s.faults.Load(),
		Degraded:           s.disabled.Load(),
	}
}

// Get looks key up and decodes the cached entry into value,
// reporting whether it hit. It cannot fail: a missing entry is a miss;
// a corrupt entry is quarantined and a miss; an I/O fault counts
// against the degradation ladder and is a miss.
func (s *Store) Get(key string, value any) bool {
	if s.disabled.Load() {
		s.misses.Add(1)
		return false
	}
	hit, err := s.get(key, value)
	if err != nil {
		s.fault("read", err)
		s.misses.Add(1)
		return false
	}
	if hit {
		// Only a genuine read resets the fault ladder: a miss is an
		// ENOENT and proves nothing about disk health, and resetting on
		// it would let an alternating miss/write-fault pattern evade
		// MaxFaults forever.
		s.consecutive.Store(0)
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return hit
}

// Put publishes value under key atomically (temp file + fsync +
// rename). It cannot fail the caller: on any fault the key's disk
// layer is turned off for this process and the in-memory memo carries
// the result.
func (s *Store) Put(key string, value any) {
	if s.disabled.Load() {
		s.writeSkips.Add(1)
		return
	}
	if _, bad := s.badKeys.Load(key); bad {
		s.writeSkips.Add(1)
		return
	}
	if err := s.put(key, value); err != nil {
		s.badKeys.Store(key, struct{}{})
		s.fault("write", err)
		s.writeSkips.Add(1)
		return
	}
	s.consecutive.Store(0)
	s.writes.Add(1)
}

// fault is the degradation ladder's accounting: count, warn once per
// condition, and after maxFaults consecutive faults disable the disk
// layer for the rest of the process.
func (s *Store) fault(op string, err error) {
	s.faults.Add(1)
	s.warnOnce("fault:"+op, "store: %s fault: %v — result stays in-memory, run continues", op, err)
	if n := s.consecutive.Add(1); n >= int64(s.maxFaults) && !s.disabled.Swap(true) {
		s.warnOnce("degraded", "store: %d consecutive faults — disk layer disabled for this process", n)
	}
}

func (s *Store) warnOnce(class, format string, args ...any) {
	s.warnMu.Lock()
	seen := s.warned[class]
	s.warned[class] = true
	s.warnMu.Unlock()
	if !seen {
		s.logf(format, args...)
	}
}

// entryPath is the content address: SHA-256 of the canonical key.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.sub("entries"), hashName(key)+".entry")
}

func hashName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) get(key string, value any) (bool, error) {
	path := s.entryPath(key)
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	data, rerr := readAll(f)
	cerr := f.Close()
	if rerr != nil {
		return false, rerr
	}
	if cerr != nil {
		return false, cerr
	}
	err = entryFormat.Decode(data, key, value)
	switch {
	case err == nil:
		return true, nil
	case legacyEntry(data), errors.Is(err, wire.ErrVersion), errors.Is(err, wire.ErrSchema),
		errors.Is(err, wire.ErrKey):
		// Well-formed but not ours: another format version, another
		// payload type, or a hash collision. A plain miss — the next
		// Put overwrites it.
		return false, nil
	default:
		// Corrupt (bad magic, torn, checksum) or, past a valid
		// checksum, a payload that does not decode. Either way the
		// entry is unusable and worth moving out of the way.
		s.quarantine(path, err.Error())
		return false, nil
	}
}

// legacyEntry reports whether data is a FormatVersion 1 entry, whose
// first line was a JSON header: a format mismatch, not corruption.
func legacyEntry(data []byte) bool { return len(data) > 0 && data[0] == '{' }

// quarantine moves a corrupt entry aside (recomputation then overwrites
// the address) and counts it exactly once — the file is gone from the
// entries directory the moment it is counted.
func (s *Store) quarantine(path, why string) {
	dst := filepath.Join(s.sub("quarantine"),
		fmt.Sprintf("%s.%d.%d.corrupt", filepath.Base(path), os.Getpid(), s.seq.Add(1)))
	if err := s.fs.Rename(path, dst); err != nil {
		if rmErr := s.fs.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			// Could not even unlink it: a real I/O fault, and the entry
			// will be re-detected next time. Not counted as quarantined.
			s.fault("quarantine", rmErr)
			return
		}
	}
	s.corrupt.Add(1)
	s.warnOnce("corrupt", "store: corrupt entry quarantined (%s) — recomputing", why)
	s.reapQuarantine()
}

// reapQuarantine bounds quarantine/ to maxQuarantine files by deleting
// the oldest beyond the cap (modification time, name as tie-break so
// concurrent reapers agree on the order). Quarantined entries exist
// for post-mortem inspection, not correctness — the content address is
// recomputed and overwritten the moment corruption is detected — so a
// recurring corruption source must not grow the directory without
// bound. Best effort: any error leaves the files for next time.
func (s *Store) reapQuarantine() {
	if s.maxQuarantine < 0 {
		return
	}
	ents, err := s.fs.ReadDir(s.sub("quarantine"))
	if err != nil {
		return
	}
	type qfile struct {
		name string
		mod  int64
	}
	var files []qfile
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".corrupt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, qfile{name: e.Name(), mod: info.ModTime().UnixNano()})
	}
	if len(files) <= s.maxQuarantine {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for _, f := range files[:len(files)-s.maxQuarantine] {
		if err := s.fs.Remove(filepath.Join(s.sub("quarantine"), f.name)); err == nil {
			s.reaped.Add(1)
		} else if os.IsNotExist(err) {
			// Another process reaped it first; it is gone either way,
			// but only the remover counts it.
			continue
		}
	}
}

// put runs the atomic publish sequence. Every call below is a crash
// boundary the consistency test enumerates; the invariant is that the
// final entry path holds either nothing or a fully checksummed entry,
// because the only call that makes the entry visible is the rename.
func (s *Store) put(key string, value any) error {
	frame, err := entryFormat.Encode(key, value)
	if err != nil {
		return fmt.Errorf("store: encoding value: %w", err)
	}

	name := hashName(key)
	release, err := s.acquireLock(name)
	if err != nil {
		return err
	}
	defer release()

	tmp := filepath.Join(s.sub("tmp"),
		fmt.Sprintf("%s.%d.%d.tmp", name, os.Getpid(), s.seq.Add(1)))
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(frame)
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	if err := firstErr(werr, serr, cerr); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, s.entryPath(key)); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(s.sub("entries"))
}

// Verify walks the entries directory and checks every entry's header
// and checksum without quarantining — the crash-consistency invariant
// ("every entry is either absent or fully valid") made executable.
func (s *Store) Verify() (valid, corrupt int, err error) {
	ents, err := s.fs.ReadDir(s.sub("entries"))
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".entry") {
			continue
		}
		f, err := s.fs.OpenFile(filepath.Join(s.sub("entries"), e.Name()), os.O_RDONLY, 0)
		if err != nil {
			return valid, corrupt, err
		}
		data, rerr := readAll(f)
		f.Close()
		if rerr != nil {
			return valid, corrupt, rerr
		}
		if entryWellFormed(data) {
			valid++
		} else {
			corrupt++
		}
	}
	return valid, corrupt, nil
}

// entryWellFormed checks an entry's frame without knowing the key
// (Verify cannot know which key an entry should serve). Entries of
// another format version are well-formed: Get reads them as misses.
func entryWellFormed(data []byte) bool {
	_, err := entryFormat.Open(data)
	return err == nil || errors.Is(err, wire.ErrVersion) || legacyEntry(data)
}

// sweepTmp clears temp files abandoned by dead processes (their pid is
// embedded in the name). Live processes' in-flight files are left
// alone. Best effort: any error just leaves the file for next time.
func (s *Store) sweepTmp() {
	ents, err := s.fs.ReadDir(s.sub("tmp"))
	if err != nil {
		return
	}
	for _, e := range ents {
		parts := strings.Split(e.Name(), ".")
		// <hash>.<pid>.<seq>.tmp
		if len(parts) != 4 || parts[3] != "tmp" {
			continue
		}
		pid, err := strconv.Atoi(parts[1])
		if err != nil || pid == os.Getpid() || processAlive(pid) {
			continue
		}
		s.fs.Remove(filepath.Join(s.sub("tmp"), e.Name()))
	}
}

// Fingerprint returns a short stable fingerprint of v's JSON form —
// cache keys embed the full simulation Scale through it, so two
// configurations that differ in any field never alias even when they
// share a name.
func Fingerprint(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// readAll reads f fully via its Read method, so injected read faults
// and byte flips are exercised.
func readAll(f File) ([]byte, error) { return io.ReadAll(f) }
