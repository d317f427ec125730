// Command obslint enforces the repo's observability discipline:
//
//   - No file under internal/ may call time.Now(). Every timestamp a run
//     records flows through obs.SimClock; a wall-clock read would make
//     traces and journals differ across runs and worker counts.
//
//   - The journal-emitting packages (internal/core, internal/ssi,
//     internal/tds) may not import encoding/json. The journal's wire form
//     is byte-pinned by internal/obs's canonical encoder; a second JSON
//     path in an emitting package is how ad-hoc, non-deterministic
//     serialization sneaks into the telemetry surface.
//
// Usage: go run ./scripts/obslint.go [dir]   (dir defaults to internal)
//
// Test files are exempt: they may time out, poll, measure wall time and
// unmarshal artifacts for assertions.
package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// noJSON are the journal-emitting packages barred from importing
// encoding/json directly.
var noJSON = map[string]bool{
	filepath.Join("internal", "core"): true,
	filepath.Join("internal", "ssi"):  true,
	filepath.Join("internal", "tds"):  true,
}

func main() {
	root := "internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		hits, err := lintFile(path, noJSON[filepath.Dir(filepath.Clean(path))])
		if err != nil {
			return err
		}
		for _, h := range hits {
			fmt.Fprintln(os.Stderr, h)
			bad++
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "obslint:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "obslint: %d violation(s) in %s/; use obs.SimClock for time, internal/obs for journal encoding\n", bad, root)
		os.Exit(1)
	}
}

// lintFile reports every non-comment line of one file that calls
// time.Now( — and, when banJSON is set, every encoding/json import. A
// leading // comment or a trailing // comment does not count; string
// literals are not special-cased (no legitimate Go source embeds
// "time.Now(" in a string here, and the import path match requires the
// quotes).
func lintFile(path string, banJSON bool) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hits []string
	sc := bufio.NewScanner(f)
	line := 0
	inBlock := false
	for sc.Scan() {
		line++
		text := sc.Text()
		if inBlock {
			if i := strings.Index(text, "*/"); i >= 0 {
				text = text[i+2:]
				inBlock = false
			} else {
				continue
			}
		}
		if i := strings.Index(text, "/*"); i >= 0 {
			// Keep only what precedes the block comment; multi-line blocks
			// swallow the following lines.
			if end := strings.Index(text[i:], "*/"); end < 0 {
				inBlock = true
				text = text[:i]
			}
		}
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		if strings.Contains(text, "time.Now(") {
			hits = append(hits, fmt.Sprintf("%s:%d: direct time.Now() call", path, line))
		}
		if banJSON && strings.Contains(text, `"encoding/json"`) {
			hits = append(hits, fmt.Sprintf(
				"%s:%d: encoding/json import in a journal-emitting package; emit through internal/obs", path, line))
		}
	}
	return hits, sc.Err()
}
