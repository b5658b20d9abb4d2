package archtest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Architecture tests: the layering of the storage/mining stack is
// enforced by parsing imports, so a dependency edge that would break the
// design (e.g. the mining core reaching into the store, or the WAL
// depending on anything at all) fails the suite instead of slipping in
// silently.
//
//	internal/seq    stdlib only            (data model + index, leaf)
//	internal/vfs    stdlib only            (filesystem abstraction +
//	                                        fault injection, leaf)
//	internal/wal    stdlib + internal/vfs  (framed log; all I/O through
//	                                        the vfs so faults reach it)
//	internal/core   stdlib + internal/seq  (mining algorithms, including
//	                                        the semantics strategies —
//	                                        strategies must stay free of
//	                                        server/cli/store imports)
//	internal/gapped stdlib + internal/seq  (gap-constrained strategy of
//	                + internal/core         the kernel; same strategy-layer
//	                                        constraint)
//	internal/store  anything below it      (storage engine; checked to
//	                                        stay off core and server)
//	internal/repl   storage stack only     (replication transport; must
//	                                        not reach the mining layers
//	                                        or the server above it)
//	internal/harness repro + generators,   (experiment runner; mines
//	                 post-processing and    through repro.Options like
//	                 baselines              every other caller, never
//	                                        internal/core directly)
var archRules = []struct {
	dir     string
	allowed map[string]bool // non-stdlib import path -> permitted
}{
	{dir: "../seq", allowed: map[string]bool{}},
	{dir: "../vfs", allowed: map[string]bool{}},
	{dir: "../wal", allowed: map[string]bool{
		"repro/internal/vfs": true,
	}},
	{dir: "../core", allowed: map[string]bool{
		"repro/internal/seq": true,
	}},
	{dir: "../gapped", allowed: map[string]bool{
		"repro/internal/core": true,
		"repro/internal/seq":  true,
	}},
	{dir: "../store", allowed: map[string]bool{
		"repro/internal/seq": true,
		"repro/internal/vfs": true,
		"repro/internal/wal": true,
	}},
	{dir: "../repl", allowed: map[string]bool{
		"repro/internal/store": true,
		"repro/internal/vfs":   true,
		"repro/internal/wal":   true,
	}},
	{dir: "../harness", allowed: map[string]bool{
		"repro":                      true,
		"repro/internal/baseline":    true,
		"repro/internal/datagen":     true,
		"repro/internal/postprocess": true,
		"repro/internal/seq":         true,
	}},
}

// isStdlib: stdlib import paths never contain a dot in the first path
// element; module paths do — except our own module "repro", handled by
// the explicit allowlists.
func isStdlib(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".") && first != "repro" && !strings.HasPrefix(path, "repro")
}

func TestArchImportBoundaries(t *testing.T) {
	fset := token.NewFileSet()
	for _, rule := range archRules {
		entries, err := os.ReadDir(rule.dir)
		if err != nil {
			t.Fatalf("%s: %v", rule.dir, err)
		}
		checked := 0
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(rule.dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Errorf("parse %s: %v", path, err)
				continue
			}
			checked++
			for _, imp := range f.Imports {
				importPath := strings.Trim(imp.Path.Value, `"`)
				if isStdlib(importPath) {
					continue
				}
				if !rule.allowed[importPath] {
					t.Errorf("%s imports %q, which the architecture forbids (allowed beyond stdlib: %v)",
						path, importPath, keys(rule.allowed))
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no Go files checked — directory moved?", rule.dir)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
