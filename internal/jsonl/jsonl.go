// Package jsonl is the disk edge of the durable components: the Central
// Server's WAL and snapshot (internal/db) and the Faucets Daemon's
// journal are line-per-record files recovered, appended to (one Writer,
// one crash model) and replaced the same way, and this package is the one
// place that scans, writes, syncs, truncates and renames them. What a
// line means stays with its owner.
package jsonl

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
)

// Replay feeds the non-blank lines of the file at path to apply, in
// order and trimmed of surrounding space, until apply rejects one: a
// line torn by a crash mid-append does not parse, and nothing after it
// can be trusted. The file is then truncated back to the end of the
// last accepted line, so appending resumes after intact records only. A
// final line that lacks its newline but is accepted is kept. A missing
// file holds no lines.
func Replay(path string, apply func(line []byte) bool) error {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jsonl: read: %w", err)
	}
	valid := 0
	for valid < len(blob) {
		end := len(blob)
		if nl := bytes.IndexByte(blob[valid:], '\n'); nl >= 0 {
			end = valid + nl + 1
		}
		if line := bytes.TrimSpace(blob[valid:end]); len(line) > 0 && !apply(line) {
			break
		}
		valid = end
	}
	if valid < len(blob) {
		log.Printf("jsonl: %s: dropping %d bytes of torn tail", path, len(blob)-valid)
		if err := os.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("jsonl: truncate torn tail: %w", err)
		}
	}
	return nil
}

// ReplaceFile makes blob the content of path atomically: it is written
// to a synced temporary file in the same directory and renamed over the
// target, so a crash leaves the old content or the new, never a torn
// mix. The directory is then synced as well. A rename lives in the
// directory, not in the file, and until the directory reaches the disk
// a power loss can bring the old name back — while what the caller does
// next may survive: db.Compact empties the WAL right after replacing
// the snapshot, and the old snapshot beside an empty WAL is every
// mutation since that snapshot lost. An error may come after the rename:
// path may then name the new content, not yet durable.
func ReplaceFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("jsonl: temp file: %w", err)
	}
	name := tmp.Name()
	_, err = tmp.Write(blob)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("jsonl: replace %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir makes the renames in dir durable; a test may make it fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("jsonl: sync directory: %w", err)
	}
	return nil
}
