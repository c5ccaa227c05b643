package faucets

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// otherToolFlags are the flags of programs that are not ours which the
// documents' commands use: the go tool's, and four of the shell's (curl
// -s, mkdir -p, pgrep -f, ps -eo, python3 -c).
var otherToolFlags = map[string]bool{
	"bench": true, "benchmem": true, "count": true, "cpu": true, "fuzz": true, "fuzztime": true,
	"gcflags": true, "race": true, "run": true, "short": true,
	"c": true, "eo": true, "f": true, "p": true, "s": true,
}

// TestDocsCiteExistingTests: every Test…/Benchmark…/Fuzz… identifier
// README.md and DESIGN.md cite is a function in some _test.go file, and
// every -flag they or the verify skill put in backticks (inline or in a
// fenced block) is defined by a flag./fs. call under cmd/ or in
// bench/main.go, so a PR that deletes, moves or renames a test or a flag
// cannot leave the documents pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := map[string]bool{}
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	citeRe := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRe.FindAllString(string(text), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
				defined[name] = true // report each name once
			}
		}
	}

	flags := map[string]bool{}
	mains, _ := filepath.Glob("cmd/*/*.go")
	defRe := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\(\s*"([^"]+)"`)
	for _, path := range append(mains, "bench/main.go") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range defRe.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
	}
	// A fenced block, or an inline span (which may wrap, not cross a blank line).
	codeRe := regexp.MustCompile("(?s)```.*?```|`(?:[^`\n]|\n[^`\n])+`")
	flagRe := regexp.MustCompile(`(?:^|[\s/(])-([a-z][a-z0-9-]*)(\*?)`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[string]bool{}
		for _, code := range codeRe.FindAllString(string(text), -1) {
			for _, m := range flagRe.FindAllStringSubmatch(strings.Trim(code, "`"), -1) {
				name, known := m[1], flags[m[1]] || otherToolFlags[m[1]]
				if m[2] == "*" { // `-breaker-*`: some flag starts so
					for f := range flags {
						known = known || strings.HasPrefix(f, name)
					}
				}
				if !known && !reported[name] {
					t.Errorf("%s cites the flag -%s, which no binary defines", doc, name)
					reported[name] = true
				}
			}
		}
	}
}
