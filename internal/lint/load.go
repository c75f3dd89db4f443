package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
}

// LoadPatterns resolves package patterns with `go list -export -deps`
// (run in dir) and type-checks every matched package from source, with all
// imports satisfied from the build cache's gc export data — no network, no
// source re-traversal of dependencies.
func LoadPatterns(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := exportFiles(listed)
	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		file, ok := exports[path]
		return file, ok
	})
	var pkgs []*Package
	for _, t := range listed {
		if t.DepOnly || len(t.GoFiles) == 0 || len(t.CgoFiles) > 0 {
			continue
		}
		pkg, err := typecheckFiles(fset, t.ImportPath, absFiles(t.Dir, t.GoFiles), imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ListExports returns the gc export-data files of the named packages and
// every dependency, keyed by import path — the resolver feed for
// exportImporter when the source being type-checked is not part of a
// module (analyzer fixtures).
func ListExports(dir string, pkgs []string) (map[string]string, error) {
	listed, err := goList(dir, pkgs)
	if err != nil {
		return nil, err
	}
	return exportFiles(listed), nil
}

// goList runs `go list -export -deps` over the patterns in dir.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var out []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		out = append(out, p)
	}
}

// exportFiles maps each listed package with export data to its file.
func exportFiles(listed []listPackage) map[string]string {
	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// LoadAndRun loads the patterns and runs the analyzers over every package.
func LoadAndRun(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := LoadPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, Run(analyzers, pkg)...)
	}
	return diags, nil
}

// exportImporter wraps the standard gc importer with a resolver mapping
// import paths to export-data files (from go list).
func exportImporter(fset *token.FileSet, resolve func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := resolve(path)
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheckFiles parses and type-checks one package from its non-test
// source files.
func typecheckFiles(fset *token.FileSet, path string, goFiles []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := newInfo()
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Fset: fset, Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// absFiles joins relative file names onto the package directory.
func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}
