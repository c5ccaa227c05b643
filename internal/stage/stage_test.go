package stage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestChunkedUploadWithChecksum(t *testing.T) {
	s := NewStore()
	s.CreateJob("j1")
	full := []byte("hello faucets staging world")
	digest := Digest(full)
	n, err := s.PutChunk("j1", "in.dat", 0, full[:10], false, "")
	if err != nil || n != 10 {
		t.Fatalf("chunk1: n=%d err=%v", n, err)
	}
	n, err = s.PutChunk("j1", "in.dat", 10, full[10:], true, digest)
	if err != nil || n != int64(len(full)) {
		t.Fatalf("chunk2: n=%d err=%v", n, err)
	}
	got, _, err := s.ReadAt("j1", "in.dat", 0, 0)
	if err != nil || !bytes.Equal(got, full) {
		t.Fatalf("get: %q err=%v", got, err)
	}
	sum, err := s.SHA256("j1", "in.dat")
	if err != nil || sum != digest {
		t.Fatalf("digest mismatch: %v %v", sum, err)
	}
}

func TestChecksumMismatchDiscardsFile(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	_, err := s.PutChunk("j", "f", 0, []byte("data"), true, "00ff")
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err=%v", err)
	}
	// The corrupt upload must be gone so a retry starts clean.
	if _, _, err := s.ReadAt("j", "f", 0, 0); !errors.Is(err, ErrNoFile) {
		t.Fatalf("corrupt file retained: %v", err)
	}
	if n, err := s.PutChunk("j", "f", 0, []byte("data"), true, Digest([]byte("data"))); err != nil || n != 4 {
		t.Fatalf("retry failed: %v", err)
	}
}

func TestNonContiguousOffsetRejected(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	_, _ = s.PutChunk("j", "f", 0, []byte("abc"), false, "")
	if _, err := s.PutChunk("j", "f", 7, []byte("xyz"), false, ""); !errors.Is(err, ErrOffset) {
		t.Fatalf("err=%v", err)
	}
	// Duplicate chunk (retransmission at old offset) also rejected with
	// the current size reported so the client can resync.
	n, err := s.PutChunk("j", "f", 0, []byte("abc"), false, "")
	if !errors.Is(err, ErrOffset) || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestWriteAfterFinalizeRejected(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	_, _ = s.PutChunk("j", "f", 0, []byte("abc"), true, "")
	if _, err := s.PutChunk("j", "f", 3, []byte("more"), false, ""); !errors.Is(err, ErrCompleted) {
		t.Fatalf("err=%v", err)
	}
}

func TestUnknownJobAndFile(t *testing.T) {
	s := NewStore()
	if _, err := s.PutChunk("ghost", "f", 0, nil, false, ""); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err=%v", err)
	}
	if err := s.Put("ghost", "f", nil); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err=%v", err)
	}
	if err := s.Append("ghost", "f", nil); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err=%v", err)
	}
	s.CreateJob("j")
	if _, _, err := s.ReadAt("j", "absent", 0, 0); !errors.Is(err, ErrNoFile) {
		t.Fatalf("err=%v", err)
	}
	if _, _, err := s.ReadAt("ghost", "f", 0, 0); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err=%v", err)
	}
}

func TestAppendAndReadAt(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	for i := 0; i < 3; i++ {
		if err := s.Append("j", "out.log", []byte("line\n")); err != nil {
			t.Fatal(err)
		}
	}
	data, eof, err := s.ReadAt("j", "out.log", 0, 5)
	if err != nil || eof || string(data) != "line\n" {
		t.Fatalf("%q eof=%v err=%v", data, eof, err)
	}
	data, eof, err = s.ReadAt("j", "out.log", 10, 0)
	if err != nil || !eof || string(data) != "line\n" {
		t.Fatalf("tail read: %q eof=%v err=%v", data, eof, err)
	}
	data, eof, err = s.ReadAt("j", "out.log", 100, 10)
	if err != nil || !eof || len(data) != 0 {
		t.Fatalf("past-end read: %q eof=%v err=%v", data, eof, err)
	}
	if all, _, _ := s.ReadAt("j", "out.log", 0, 0); len(all) != 15 {
		t.Fatalf("size=%d", len(all))
	}
}

func TestCreateJobIdempotent(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	_ = s.Put("j", "f", []byte("keep"))
	s.CreateJob("j") // must not clear files
	if got, _, err := s.ReadAt("j", "f", 0, 0); err != nil || string(got) != "keep" {
		t.Fatalf("%q %v", got, err)
	}
}

func TestDropJobDiscardsTheArea(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	_ = s.Put("j", "f", []byte("gone"))
	s.DropJob("j")
	s.DropJob("never-created")
	if _, err := s.PutChunk("j", "f", 0, []byte("x"), true, ""); !errors.Is(err, ErrNoJob) {
		t.Fatalf("upload to a dropped area: %v, want ErrNoJob", err)
	}
	s.CreateJob("j") // a new area starts empty
	if _, _, err := s.ReadAt("j", "f", 0, 0); !errors.Is(err, ErrNoFile) {
		t.Fatalf("a dropped file came back: %v", err)
	}
}

func TestReadAtReturnsCopy(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	_ = s.Put("j", "f", []byte("abc"))
	got, _, _ := s.ReadAt("j", "f", 0, 0)
	got[0] = 'X'
	again, _, _ := s.ReadAt("j", "f", 0, 0)
	if string(again) != "abc" {
		t.Fatal("ReadAt exposed internal buffer")
	}
}

// Property: any split of a payload into contiguous chunks reassembles to
// the original bytes with a matching digest.
func TestChunkReassemblyProperty(t *testing.T) {
	f := func(payload []byte, cuts []uint8) bool {
		s := NewStore()
		s.CreateJob("j")
		digest := Digest(payload)
		off := int64(0)
		rest := payload
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c)%len(rest) + 1
			if _, err := s.PutChunk("j", "f", off, rest[:n], false, ""); err != nil {
				return false
			}
			off += int64(n)
			rest = rest[n:]
		}
		if _, err := s.PutChunk("j", "f", off, rest, true, digest); err != nil {
			return false
		}
		got, _, err := s.ReadAt("j", "f", 0, 0)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentJobsIsolated(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := string(rune('a' + n))
			s.CreateJob(id)
			_ = s.Put(id, "f", []byte(id))
			got, _, err := s.ReadAt(id, "f", 0, 0)
			if err != nil || string(got) != id {
				t.Errorf("job %s corrupted: %q %v", id, got, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestOutputsShareTheirOwnersBuffer: Put and a creating Append take the
// caller's slice over without copying it, as a daemon hands over one
// buffer holding two output files. An append to the first, capped at its
// end, reallocates instead of running into the second.
func TestOutputsShareTheirOwnersBuffer(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	buf := []byte("stdout line\nresult line\n")
	n := len("stdout line\n")
	if got := testing.AllocsPerRun(1, func() {
		s.DropJob("j")
		s.CreateJob("j")
		_ = s.Append("j", "stdout.log", buf[:n:n])
		_ = s.Put("j", "result.out", buf[n:])
	}); got > 1 {
		t.Errorf("a new area and two files handed over: %v allocs, want ≤ 1 (the area)", got)
	}
	if err := s.Append("j", "stdout.log", []byte("more\n")); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"stdout.log": "stdout line\nmore\n", "result.out": "result line\n"} {
		if got, eof, err := s.ReadAt("j", name, 0, 0); err != nil || !eof || string(got) != want {
			t.Errorf("%s reads %q (eof %v, %v), want %q", name, got, eof, err, want)
		}
	}
	if string(buf) != "stdout line\nresult line\n" {
		t.Errorf("the handed-over buffer was written through: %q", buf)
	}
}

// TestFilesOfOneAreaStayApart: an area holds several files, read, hashed
// and uploaded by name: interleaved chunks land in their own files, a
// corrupt upload discards only its own, and each digest is its file's.
func TestFilesOfOneAreaStayApart(t *testing.T) {
	s := NewStore()
	s.CreateJob("j")
	files := map[string]string{"a.dat": "alpha-alpha", "b.dat": "bravo", "c.dat": "charlie-charlie-charlie"}
	for off := 0; off < 24; off += 4 {
		for name, body := range files {
			if off >= len(body) {
				continue
			}
			end := min(off+4, len(body))
			if _, err := s.PutChunk("j", name, int64(off), []byte(body[off:end]), end == len(body), Digest([]byte(body))); err != nil {
				t.Fatalf("%s at %d: %v", name, off, err)
			}
		}
	}
	if _, err := s.PutChunk("j", "bad.dat", 0, []byte("x"), true, Digest([]byte("y"))); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt upload: %v", err)
	}
	if _, _, err := s.ReadAt("j", "bad.dat", 0, 0); !errors.Is(err, ErrNoFile) {
		t.Fatalf("corrupt upload kept: %v", err)
	}
	for name, body := range files {
		if got, _, err := s.ReadAt("j", name, 2, 3); err != nil || string(got) != body[2:5] {
			t.Errorf("%s[2:5] reads %q, %v; want %q", name, got, err, body[2:5])
		}
		if sum, err := s.SHA256("j", name); err != nil || sum != Digest([]byte(body)) {
			t.Errorf("%s digest %s, %v", name, sum, err)
		}
	}
	if _, err := s.SHA256("j", "bad.dat"); !errors.Is(err, ErrNoFile) {
		t.Errorf("digest of a discarded file: %v", err)
	}
}

// TestDropsKeepTheTableSmall: areas created and dropped by the thousand,
// as a daemon past its retention bound does, leave only the live ones,
// each readable.
func TestDropsKeepTheTableSmall(t *testing.T) {
	s := NewStore()
	for i := range 10000 {
		id := fmt.Sprintf("job-%d", i)
		s.CreateJob(id)
		_ = s.Put(id, "f", []byte(id))
		if i >= 100 {
			s.DropJob(fmt.Sprintf("job-%d", i-100))
		}
	}
	if len(s.jobs) != 100 {
		t.Fatalf("%d areas, want 100", len(s.jobs))
	}
	for i := 9900; i < 10000; i++ {
		id := fmt.Sprintf("job-%d", i)
		if got, _, err := s.ReadAt(id, "f", 0, 0); err != nil || string(got) != id {
			t.Fatalf("%s reads %q, %v", id, got, err)
		}
	}
}
