package main

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLinks(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "doc", "GUIDE.md"),
		"[up](../README.md) [anchor](../README.md#quick-start) "+
			"[web](https://example.com/x.md) [self](#here)\n")
	write(t, filepath.Join(root, "README.md"), "[guide](doc/GUIDE.md)\n")
	if bad := checkLinks(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	write(t, filepath.Join(root, "README.md"), "[gone](doc/MISSING.md)\n")
	if bad := checkLinks(root); bad != 1 {
		t.Fatalf("broken link: %d violations, want 1", bad)
	}
}

func TestCheckPackageComments(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "internal", "good", "good.go"),
		"// Package good is documented.\npackage good\n")
	write(t, filepath.Join(root, "internal", "testonly", "x_test.go"),
		"// Package testonly has its comment in a test file only.\npackage testonly\n")
	write(t, filepath.Join(root, "internal", "bare", "bare.go"),
		"package bare\n")
	// good passes; testonly (no non-test files) and bare (no comment) fail.
	if bad := checkPackageComments(root); bad != 2 {
		t.Fatalf("violations = %d, want 2", bad)
	}
}

func TestCheckCommands(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "cmd", "tool", "main.go"), "package main\n")
	write(t, filepath.Join(root, "README.md"),
		"Run `go run ./cmd/tool -x`; any `go run ./cmd/<name>` placeholder is fine.\n")
	if bad := checkCommands(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	write(t, filepath.Join(root, "doc", "OLD.md"),
		"go run ./cmd/gone -y\ngo run ./cmd/tool\ngo run ./cmd/alsogone\n")
	if bad := checkCommands(root); bad != 2 {
		t.Fatalf("deleted tools: %d violations, want 2", bad)
	}
}

// TestRepoIsClean runs every check against the actual repository, the
// same invocation `make doc-check` performs.
func TestRepoIsClean(t *testing.T) {
	root := "../.."
	if bad := checkLinks(root); bad != 0 {
		t.Errorf("repo markdown links: %d broken", bad)
	}
	if bad := checkPackageComments(root); bad != 0 {
		t.Errorf("repo package comments: %d missing", bad)
	}
	if bad := checkCommands(root); bad != 0 {
		t.Errorf("repo markdown commands: %d name a missing tool", bad)
	}
}

func TestCheckPackageRefs(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "internal", "obs", "obs.go"), "// Package obs.\npackage obs\n")
	write(t, filepath.Join(root, "README.md"),
		"See `repro/internal/obs`, internal/obs/obs.go and any internal/<pkg>.\n")
	write(t, filepath.Join(root, "CHANGES.md"), "internal/trace was deleted.\n")
	if bad := checkPackageRefs(root); bad != 0 {
		t.Fatalf("clean tree: %d violations, want 0", bad)
	}
	write(t, filepath.Join(root, "doc", "GUIDE.md"), "Read internal/nosuchpkg first.\n")
	if bad := checkPackageRefs(root); bad != 1 {
		t.Fatalf("deleted package: %d violations, want 1", bad)
	}
}
