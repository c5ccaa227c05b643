package faucets

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests: every Test…/Benchmark…/Fuzz… identifier
// README.md and DESIGN.md cite is a function in some _test.go file, so a
// PR that deletes, moves or renames a test cannot leave the documents
// pointing at nothing.
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
}
