// Command doccheck is the `make doc-check` gate: it keeps the repository's
// documentation from rotting by verifying four invariants that are cheap
// to break silently —
//
//  1. every relative link in the markdown files resolves to a file or
//     directory that actually exists (anchors after '#' are ignored),
//  2. every internal/ package carries a package comment in a non-test file,
//     so `go doc repro/internal/<pkg>` always says something,
//  3. every `go run ./cmd/<name>` in a markdown file names a cmd/
//     directory that exists, so no documented command outlives its tool, and
//  4. every internal/<pkg> named in a document about the current tree
//     (see currentDocs) is an existing directory, so no deleted package
//     lives on in the docs.
//
// It prints one line per violation and exits 1 if there are any.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdLink matches inline markdown links and images: [text](target).
// Reference-style definitions and autolinks are rare in this repo and
// external (http) targets are skipped below anyway.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// goRunCmd matches a documented tool invocation and captures the tool.
var goRunCmd = regexp.MustCompile(`go run \./cmd/([A-Za-z0-9_-]+)`)

// pkgRef matches a named internal package ("internal/obs", also inside
// "repro/internal/obs" or "internal/obs/obs.go") and captures its name.
var pkgRef = regexp.MustCompile(`internal/([A-Za-z0-9_]+)`)

// currentDocs are the documents that describe the tree as it is. History
// files such as CHANGES.md and ROADMAP.md are left out: they name
// deleted packages on purpose.
var currentDocs = []string{
	"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md",
	"doc/*.md", ".claude/skills/*/SKILL.md",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad := 0
	bad += checkLinks(root)
	bad += checkPackageComments(root)
	bad += checkCommands(root)
	bad += checkPackageRefs(root)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doc-check: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("doc-check: all markdown links resolve; all internal packages documented; all documented commands and packages exist")
}

// walkMarkdown calls fn with the path and contents of every .md file
// under root (skipping .git and testdata).
func walkMarkdown(root string, fn func(path, text string)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, string(data))
		return nil
	})
}

// checkLinks walks every .md file and verifies each relative link target
// exists on disk, resolved against the file's own directory.
func checkLinks(root string) int {
	bad := 0
	err := walkMarkdown(root, func(path, text string) {
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" { // pure in-page anchor
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				fmt.Fprintf(os.Stderr, "%s: broken link %q (%s does not exist)\n",
					path, m[1], resolved)
				bad++
			}
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: walk: %v\n", err)
		return bad + 1
	}
	return bad
}

// checkCommands verifies every `go run ./cmd/<name>` in the markdown
// files names a directory under root's cmd/.
func checkCommands(root string) int {
	bad := 0
	err := walkMarkdown(root, func(path, text string) {
		for _, m := range goRunCmd.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil || !fi.IsDir() {
				fmt.Fprintf(os.Stderr, "%s: %q names no cmd/%s directory\n", path, m[0], m[1])
				bad++
			}
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: walk: %v\n", err)
		return bad + 1
	}
	return bad
}

// checkPackageRefs verifies every internal/<pkg> named in currentDocs
// names a directory under root's internal/.
func checkPackageRefs(root string) int {
	bad := 0
	for _, pat := range currentDocs {
		paths, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil {
			fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
			return bad + 1
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
				bad++
				continue
			}
			for _, m := range pkgRef.FindAllStringSubmatch(string(data), -1) {
				if fi, err := os.Stat(filepath.Join(root, "internal", m[1])); err != nil || !fi.IsDir() {
					fmt.Fprintf(os.Stderr, "%s: %q names no internal/%s directory\n", path, m[0], m[1])
					bad++
				}
			}
		}
	}
	return bad
}

// checkPackageComments parses each internal/<pkg> directory (non-test
// files only, comments retained) and requires a package doc comment.
func checkPackageComments(root string) int {
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
		return 1
	}
	bad := 0
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(root, "internal", d.Name())
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: parse: %v\n", dir, err)
			bad++
			continue
		}
		documented := false
		any := false
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				any = true
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
				}
			}
		}
		if !any {
			fmt.Fprintf(os.Stderr, "%s: no non-test Go files — add a doc.go\n", dir)
			bad++
		} else if !documented {
			fmt.Fprintf(os.Stderr, "%s: missing package comment\n", dir)
			bad++
		}
	}
	return bad
}
