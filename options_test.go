package parbox

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// exportedOptions parses this package's non-test files for the exported
// functions that return an Option or an ExecOption: the option surface.
func exportedOptions(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := make(map[string]bool)
	for _, f := range pkgs["parbox"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && (id.Name == "Option" || id.Name == "ExecOption") {
				opts[fn.Name.Name] = true
			}
		}
	}
	return opts
}

// TestREADMENamesEveryOption keeps README.md and the option surface in
// step: README names every option, and every With… name it mentions is
// still an option.
func TestREADMENamesEveryOption(t *testing.T) {
	opts := exportedOptions(t)
	if len(opts) == 0 {
		t.Fatal("found no options")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range opts {
		if !regexp.MustCompile(`\b` + name + `\b`).Match(readme) {
			t.Errorf("README.md does not name the option %s", name)
		}
	}
	for _, name := range regexp.MustCompile(`\bWith[A-Z][A-Za-z]*\b`).FindAll(readme, -1) {
		if !opts[string(name)] {
			t.Errorf("README.md names %s, which is not an option", name)
		}
	}
	t.Logf("%d options", len(opts))
}
