package jsonl

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ok accepts a line that is a whole JSON-ish record: {...}.
func ok(line []byte) bool {
	return bytes.HasPrefix(line, []byte("{")) && bytes.HasSuffix(line, []byte("}"))
}

func TestReplay(t *testing.T) {
	cases := []struct {
		name  string
		file  string // "" with missing set: no file at all
		apply func([]byte) bool
		lines []string // accepted, in order
		kept  string   // file content afterwards
	}{
		{name: "clean file", file: "{a}\n{b}\n", lines: []string{"{a}", "{b}"}, kept: "{a}\n{b}\n"},
		{name: "torn mid-line", file: "{a}\n{b}\n{c", lines: []string{"{a}", "{b}"}, kept: "{a}\n{b}\n"},
		{name: "torn first line", file: "{a", kept: ""},
		{name: "valid final line without newline kept", file: "{a}\n{b}", lines: []string{"{a}", "{b}"}, kept: "{a}\n{b}"},
		{name: "blank lines skipped", file: "{a}\n\n  \r\n{b}\n \n", lines: []string{"{a}", "{b}"}, kept: "{a}\n\n  \r\n{b}\n \n"},
		{name: "lines trimmed", file: "  {a} \r\n", lines: []string{"{a}"}, kept: "  {a} \r\n"},
		{name: "nothing after a rejected line is trusted", file: "{a}\n{b\n{c}\n", lines: []string{"{a}"}, kept: "{a}\n"},
		{name: "empty file", file: "", kept: ""},
		{
			name: "apply rejecting line k truncates exactly there", file: "{a}\n{b}\n{c}\n{d}\n",
			apply: func(line []byte) bool { return string(line) != "{c}" },
			lines: []string{"{a}", "{b}"}, kept: "{a}\n{b}\n",
		},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(tc.file), 0o600); err != nil {
			t.Fatal(err)
		}
		apply := tc.apply
		if apply == nil {
			apply = ok
		}
		var got []string
		err := Replay(path, func(line []byte) bool {
			if !apply(line) {
				return false
			}
			got = append(got, string(line))
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if strings.Join(got, "|") != strings.Join(tc.lines, "|") {
			t.Errorf("%s: applied %q, want %q", tc.name, got, tc.lines)
		}
		if kept, _ := os.ReadFile(path); string(kept) != tc.kept {
			t.Errorf("%s: file is %q afterwards, want %q", tc.name, kept, tc.kept)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	err := Replay(path, func([]byte) bool {
		t.Fatal("apply called for a file that does not exist")
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Replay created the file: %v", err)
	}
	// Anything else that keeps the file from being read is an error.
	if err := Replay(filepath.Dir(path), ok); err == nil {
		t.Fatal("Replay of a directory succeeded")
	}
}

// temps lists what a ReplaceFile may have left behind in dir.
func temps(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReplaceFileLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	for _, content := range []string{"first", "second, longer", ""} {
		if err := ReplaceFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("content %q, %v; want %q", got, err, content)
		}
	}
	if left := temps(t, dir); len(left) != 0 {
		t.Fatalf("temp files left after success: %v", left)
	}

	// A replace that cannot finish — the target is a directory with
	// something in it, so the rename fails — reports the error, removes
	// its temp file and leaves the target alone.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o700); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(blocked, []byte("x")); err == nil {
		t.Fatal("replacing a non-empty directory succeeded")
	}
	if left := temps(t, dir); len(left) != 0 {
		t.Fatalf("temp files left after failure: %v", left)
	}
	if _, err := os.Stat(filepath.Join(blocked, "child")); err != nil {
		t.Fatalf("failed replace damaged the target: %v", err)
	}
	// No directory to write into: nothing is created at all.
	if err := ReplaceFile(filepath.Join(dir, "absent", "f"), []byte("x")); err == nil {
		t.Fatal("replace in a missing directory succeeded")
	}
}
