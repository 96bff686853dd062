package interp_test

import (
	"fmt"
	"strings"
)

// Module sources shared by the interpreter tests: the three shapes a
// campaign runs (straight-line source code, structured loops, and the
// block-argument CFGs scf-to-cf lowering produces).

// straightLineSrc builds a main of n chained arith ops and one print.
func straightLineSrc(n int) string {
	var b strings.Builder
	b.WriteString(`"builtin.module"() ({
  "func.func"() ({
    %v0 = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %v1 = "arith.constant"() {value = 5 : i64} : () -> (i64)
`)
	for i := 2; i < n+2; i++ {
		op := [...]string{"arith.addi", "arith.muli", "arith.xori", "arith.subi"}[i%4]
		fmt.Fprintf(&b, "    %%v%d = %q(%%v%d, %%v%d) : (i64, i64) -> (i64)\n", i, op, i-1, i-2)
	}
	fmt.Fprintf(&b, `    "vector.print"(%%v%d) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`, n+1)
	return b.String()
}

// scfLoopSrc builds a main whose work is an iters-trip scf.for
// accumulating over the induction variable.
func scfLoopSrc(iters int) string {
	return fmt.Sprintf(`"builtin.module"() ({
  "func.func"() ({
    %%lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %%ub = "arith.constant"() {value = %d : index} : () -> (index)
    %%st = "arith.constant"() {value = 1 : index} : () -> (index)
    %%init = "arith.constant"() {value = 0 : i64} : () -> (i64)
    %%three = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %%r = "scf.for"(%%lb, %%ub, %%st, %%init) ({
    ^bb0(%%iv: index, %%acc: i64):
      %%i = "arith.index_cast"(%%iv) : (index) -> (i64)
      %%t = "arith.muli"(%%i, %%three) : (i64, i64) -> (i64)
      %%a = "arith.addi"(%%acc, %%t) : (i64, i64) -> (i64)
      "scf.yield"(%%a) : (i64) -> ()
    }) : (index, index, index, i64) -> (i64)
    "vector.print"(%%r) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`, iters)
}

// cfLoopSrc builds the same accumulation as an explicit CFG — the shape
// scf-to-cf lowering produces, where every iteration is a block-arg
// branch rather than a region re-entry.
func cfLoopSrc(iters int) string {
	return fmt.Sprintf(`"builtin.module"() ({
  "func.func"() ({
  ^bb0:
    %%zero = "arith.constant"() {value = 0 : i64} : () -> (i64)
    %%one = "arith.constant"() {value = 1 : i64} : () -> (i64)
    %%three = "arith.constant"() {value = 3 : i64} : () -> (i64)
    %%n = "arith.constant"() {value = %d : i64} : () -> (i64)
    "cf.br"()[^head(%%zero : i64, %%zero : i64)] : () -> ()
  ^head(%%acc: i64, %%i: i64):
    %%c = "arith.cmpi"(%%i, %%n) {predicate = 2 : i64} : (i64, i64) -> (i1)
    "cf.cond_br"(%%c)[^body(%%acc : i64, %%i : i64), ^exit(%%acc : i64)] : (i1) -> ()
  ^body(%%a: i64, %%j: i64):
    %%t = "arith.muli"(%%j, %%three) : (i64, i64) -> (i64)
    %%a2 = "arith.addi"(%%a, %%t) : (i64, i64) -> (i64)
    %%j2 = "arith.addi"(%%j, %%one) : (i64, i64) -> (i64)
    "cf.br"()[^head(%%a2 : i64, %%j2 : i64)] : () -> ()
  ^exit(%%r: i64):
    "vector.print"(%%r) : (i64) -> ()
    "func.return"() : () -> ()
  }) {sym_name = "main", function_type = () -> ()} : () -> ()
}) : () -> ()`, iters)
}
