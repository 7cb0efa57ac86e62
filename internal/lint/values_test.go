package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestValuesGolden pins the value-analysis lattice itself: over the
// testdata/values fixture it records the interval of every probe()
// argument and the proof status of every index expression, comparing the
// dump against values_golden.txt. Regenerate with:
// go test ./internal/lint -run TestValuesGolden -update
func TestValuesGolden(t *testing.T) {
	tgt := fixtureTarget(t, "values")
	pkg := tgt.Pkgs[0]
	eng := tgt.values()

	type record struct {
		pos  token.Position
		text string
	}
	var out bytes.Buffer
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "probe" {
				continue
			}
			an := eng.analysisOf(pkg, fd)
			var recs []record
			an.walk(func(n ast.Node, f *valueFact) {
				// probe(...) observation points.
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "probe" {
							var args []string
							for _, a := range call.Args {
								args = append(args, fmt.Sprintf("%s = %s",
									types.ExprString(a), an.eval(f, a)))
							}
							recs = append(recs, record{
								pos:  tgt.Position(call.Pos()),
								text: fmt.Sprintf("probe: %s", joinStrings(args, ", ")),
							})
							return
						}
					}
				}
				// Every index expression gets a proof attempt.
				an.visitIndexes(f, n, func(idx *ast.IndexExpr, f *valueFact) {
					status := "proven"
					if ok, why := an.proveIndex(f, idx); !ok {
						status = "UNPROVEN: " + why
					}
					recs = append(recs, record{
						pos:  tgt.Position(idx.Pos()),
						text: fmt.Sprintf("index %s: %s", types.ExprString(idx), status),
					})
				})
			})
			sort.SliceStable(recs, func(i, j int) bool {
				if recs[i].pos.Line != recs[j].pos.Line {
					return recs[i].pos.Line < recs[j].pos.Line
				}
				return recs[i].pos.Column < recs[j].pos.Column
			})
			fmt.Fprintf(&out, "func %s\n", fd.Name.Name)
			for _, r := range recs {
				fmt.Fprintf(&out, "  L%d %s\n", r.pos.Line, r.text)
			}
		}
	}

	golden := filepath.Join("testdata", "values_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("value facts diverged from %s:\n got:\n%s\nwant:\n%s",
			golden, out.String(), want)
	}
}

func joinStrings(ss []string, sep string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(s)
	}
	return b.String()
}

// TestIntervalOps covers the interval algebra edge cases the fixture
// cannot reach: saturation at the int64 rim, empty-interval propagation,
// and the containment/join/meet laws the solver relies on.
func TestIntervalOps(t *testing.T) {
	top := ivTop()
	if !top.contains(ivConst(42)) || !top.contains(ivAtLeast(0)) {
		t.Error("top must contain everything")
	}
	empty := interval{lo: 1, hi: 0}
	if !empty.empty() {
		t.Error("lo>hi must be empty")
	}
	if got := empty.join(ivConst(5)); got != ivConst(5) {
		t.Errorf("empty join [5,5] = %s, want [5,5]", got)
	}
	if got := ivRange(0, 10).meet(ivRange(5, 20)); got != ivRange(5, 10) {
		t.Errorf("[0,10] meet [5,20] = %s, want [5,10]", got)
	}
	if got := ivRange(0, 3).meet(ivRange(5, 9)); !got.empty() {
		t.Errorf("disjoint meet = %s, want empty", got)
	}
	if got := ivRange(0, 3).join(ivRange(5, 9)); got != ivRange(0, 9) {
		t.Errorf("[0,3] join [5,9] = %s, want [0,9]", got)
	}
	// Saturation: max int64 + 1 overflows to +inf, not wraparound.
	maxed := ivConst(1 << 62).addConst(1 << 62)
	if maxed.hiInf || maxed.hi != 1<<63-2+0 {
		// 2^62 + 2^62 = 2^63 which overflows int64: must saturate.
		if !maxed.hiInf {
			t.Errorf("2^62+2^62 = %s, want +inf saturation", maxed)
		}
	}
	if got := ivRange(-3, 7).neg(); got != ivRange(-7, 3) {
		t.Errorf("neg[-3,7] = %s, want [-7,3]", got)
	}
	if got := mulConst(ivRange(2, 5), 3); got != ivRange(6, 15) {
		t.Errorf("[2,5]*3 = %s, want [6,15]", got)
	}
	if got := mulConst(ivRange(1<<40, 1<<40), 1<<40); !got.hiInf {
		t.Errorf("2^40*2^40 = %s, want +inf saturation", got)
	}
	if s := ivAtLeast(3).String(); s != "[3,+inf]" {
		t.Errorf("String = %q", s)
	}
	if !ivRange(0, 255).contains(ivRange(10, 20)) || ivRange(0, 255).contains(ivRange(-1, 20)) {
		t.Error("containment over [0,255] wrong")
	}
}

// analyzeFixture solves every function body in a one-package fixture and
// returns the analyses by function name.
func analyzeFixture(t *testing.T, name string) (*valueEngine, *Package, map[string]*funcAnalysis) {
	t.Helper()
	tgt := fixtureTarget(t, name)
	pkg := tgt.Pkgs[0]
	eng := tgt.values()
	out := map[string]*funcAnalysis{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out[fd.Name.Name] = eng.analysisOf(pkg, fd)
			}
		}
	}
	return eng, pkg, out
}

// TestValuesSelfRecursion is the regression test for a self-recursive
// function (testdata/reprorec). Solving fact reaches summaryOf(fact)
// through its own call; that query used to walk the half-built analysis
// and index its nil facts. It must instead fall back to the result's type
// interval, and the finished analysis must walk normally.
func TestValuesSelfRecursion(t *testing.T) {
	eng, pkg, ans := analyzeFixture(t, "reprorec")
	an := ans["fact"]
	if an == nil || an.solving || an.facts == nil {
		t.Fatalf("fact analysis not solved: %+v", an)
	}
	returns := 0
	an.walk(func(n ast.Node, f *valueFact) {
		if _, ok := n.(*ast.ReturnStmt); ok {
			returns++
		}
	})
	if returns != 2 {
		t.Errorf("walk visited %d returns, want 2", returns)
	}
	fn := pkg.Types.Scope().Lookup("fact").(*types.Func)
	if got, want := eng.summaryOf(fn), typeInterval(types.Typ[types.Int]); !want.contains(got) {
		t.Errorf("summaryOf(fact) = %s, want within %s", got, want)
	}
}

// TestValuesRelationWidening is the regression test for testdata/reprorel:
// i++ inside a loop raises the delta of i <= len(s)+delta on every trip,
// so without widening the relation the solver never reaches a fixpoint.
// The relation must be dropped at the loop head and gone after the loop.
func TestValuesRelationWidening(t *testing.T) {
	_, _, ans := analyzeFixture(t, "reprorel")
	an := ans["consume"]
	if an == nil || an.facts == nil {
		t.Fatal("consume analysis not solved")
	}
	sawReturn := false
	an.walk(func(n ast.Node, f *valueFact) {
		if _, ok := n.(*ast.ReturnStmt); !ok {
			return
		}
		sawReturn = true
		for k, d := range f.rels {
			if k.x.String() == "i" {
				t.Errorf("relation i <= len(%s)%+d survived the loop", k.s, d)
			}
		}
	})
	if !sawReturn {
		t.Error("walk never reached the return")
	}
}
