// Package stage implements file staging for jobs (paper §3: "input files
// are uploaded and outputs downloaded automatically"). The Faucets
// Daemon holds a Store; clients upload input files in chunks before the
// job starts, jobs write output files while running, and clients
// download outputs during or after the run (§2: "at any point of the job
// execution the user can download the output files generated by the
// job"). Integrity is verified with SHA-256 digests on the final chunk.
package stage

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Errors returned by the store.
var (
	ErrNoJob     = errors.New("stage: unknown job")
	ErrNoFile    = errors.New("stage: unknown file")
	ErrOffset    = errors.New("stage: non-contiguous chunk offset")
	ErrChecksum  = errors.New("stage: checksum mismatch")
	ErrCompleted = errors.New("stage: file already finalized")
)

// file is one staged file: its name in the job's area and its buffer.
type file struct {
	name      string
	data      []byte
	finalized bool
}

// Store holds staged files grouped by job. A job's area is a short slice
// of files, searched by name: a job stages a handful of files, not
// enough for a map to pay for itself. It is safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	jobs map[string][]file
}

// NewStore returns an empty staging store.
func NewStore() *Store {
	return &Store{jobs: map[string][]file{}}
}

// CreateJob prepares a staging area for a job (idempotent).
func (s *Store) CreateJob(jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[jobID]; !ok {
		s.jobs[jobID] = make([]file, 0, 2) // room for a finished job's outputs
	}
}

// DropJob discards a job's staging area and every file in it (a no-op
// for a job that has none).
func (s *Store) DropJob(jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, jobID)
}

// fileLocked returns the named file in the job's area, adding it if
// create; the pointer is good until the area grows. Caller holds s.mu.
func (s *Store) fileLocked(jobID, name string, create bool) (*file, error) {
	files, ok := s.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoJob, jobID)
	}
	for i := range files {
		if files[i].name == name {
			return &files[i], nil
		}
	}
	if !create {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoFile, jobID, name)
	}
	files = append(files, file{name: name})
	s.jobs[jobID] = files
	return &files[len(files)-1], nil
}

// PutChunk appends a copy of a chunk at the given offset. Chunks must
// arrive contiguously (offset == bytes received so far). When last is
// true the file is finalized and, if sha256hex is non-empty, verified
// against it. It returns the total bytes received.
func (s *Store) PutChunk(jobID, name string, offset int64, data []byte, last bool, sha256hex string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fileLocked(jobID, name, true)
	if err != nil {
		return 0, err
	}
	if f.finalized {
		return int64(len(f.data)), fmt.Errorf("%w: %s/%s", ErrCompleted, jobID, name)
	}
	if offset != int64(len(f.data)) {
		return int64(len(f.data)), fmt.Errorf("%w: have %d, got offset %d", ErrOffset, len(f.data), offset)
	}
	f.data = append(f.data, data...)
	if last {
		if sha256hex != "" {
			sum := sha256.Sum256(f.data)
			if hex.EncodeToString(sum[:]) != sha256hex {
				// Discard the corrupt upload so a retry can start clean.
				s.jobs[jobID] = slices.DeleteFunc(s.jobs[jobID], func(f file) bool { return f.name == name })
				return 0, fmt.Errorf("%w: %s/%s", ErrChecksum, jobID, name)
			}
		}
		f.finalized = true
	}
	return int64(len(f.data)), nil
}

// Put stores a complete file in one call (used by jobs writing outputs).
// The store takes data over: the caller must not touch it again.
func (s *Store) Put(jobID, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fileLocked(jobID, name, true)
	if err != nil {
		return err
	}
	f.data, f.finalized = data, true
	return nil
}

// Append adds data to a job output file, creating it if needed — the
// streaming write a running job performs. A file it creates takes data
// over, as Put does: the caller must not touch it again.
func (s *Store) Append(jobID, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fileLocked(jobID, name, true)
	if err != nil {
		return err
	}
	if f.data == nil {
		f.data = data
	} else {
		f.data = append(f.data, data...)
	}
	return nil
}

// ReadAt returns up to limit bytes from offset and whether the end of
// the file was reached. limit <= 0 means "to the end".
func (s *Store) ReadAt(jobID, name string, offset, limit int64) (data []byte, eof bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fileLocked(jobID, name, false)
	if err != nil {
		return nil, false, err
	}
	size := int64(len(f.data))
	if offset >= size {
		return nil, true, nil
	}
	end := size
	if limit > 0 && offset+limit < size {
		end = offset + limit
	}
	out := append([]byte(nil), f.data[offset:end]...)
	return out, end == size, nil
}

// SHA256 returns the hex digest of a file's current contents.
func (s *Store) SHA256(jobID, name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.fileLocked(jobID, name, false)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(f.data)
	return hex.EncodeToString(sum[:]), nil
}

// Digest computes the SHA-256 hex digest of data — the client-side half
// of upload verification.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
