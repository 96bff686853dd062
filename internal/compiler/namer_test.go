package compiler

import (
	"strconv"
	"testing"

	"ratte/internal/ir"
)

// mapNamer is the map-based namer the index-based one replaced: it
// records every SSA name of the function and marks each ID it hands
// out. The index-based namer must hand out the same IDs.
type mapNamer struct {
	used map[string]bool
	n    int
}

func newMapNamer(f *ir.Operation) *mapNamer {
	nm := &mapNamer{used: make(map[string]bool)}
	f.Walk(func(op *ir.Operation) bool {
		for _, r := range op.Results {
			nm.used[r.ID] = true
		}
		for _, reg := range op.Regions {
			for _, b := range reg.Blocks {
				for _, a := range b.Args {
					nm.used[a.ID] = true
				}
			}
		}
		return true
	})
	return nm
}

func (nm *mapNamer) Fresh() string {
	for {
		id := "v" + strconv.Itoa(nm.n)
		nm.n++
		if !nm.used[id] {
			nm.used[id] = true
			return id
		}
	}
}

// namerFunc parses a function whose results and block arguments, in
// nested regions too, include IDs that look like but are not fresh
// names (v01) and a huge index (v99999999). The parser rejects '+' and
// '-' in IDs, so v+1 and v-2 are added to the entry block afterwards.
func namerFunc(t *testing.T) *ir.Operation {
	t.Helper()
	m, err := ir.Parse(`"builtin.module"() ({
  "func.func"() ({
  ^bb0(%v0: index, %v01: i64):
    %lb = "arith.constant"() {value = 0 : index} : () -> (index)
    %v3 = "arith.constant"() {value = 1 : index} : () -> (index)
    %v99999999 = "scf.for"(%lb, %v0, %v3, %v01) ({
    ^bb1(%v5: index, %v6: i64):
      %v8 = "arith.addi"(%v6, %v6) : (i64, i64) -> (i64)
      "scf.yield"(%v8) : (i64) -> ()
    }) : (index, index, index, i64) -> (i64)
    "func.return"(%v99999999) : (i64) -> ()
  }) {sym_name = "main", function_type = (index, i64) -> (i64)} : () -> ()
}) : () -> ()`)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("main")
	entry := f.Regions[0].Blocks[0]
	entry.Args = append(entry.Args, ir.V("v+1", ir.I64), ir.V("v-2", ir.I64))
	return f
}

// TestNamerMatchesMapNamer checks that the index-based namer never
// hands out an ID the function already uses and that its first IDs are
// exactly the map-based namer's.
func TestNamerMatchesMapNamer(t *testing.T) {
	f := namerFunc(t)
	taken := newMapNamer(f).used
	nm, ref := newNamer(f), newMapNamer(f)
	for i := 0; i < 20; i++ {
		got, want := nm.Fresh(), ref.Fresh()
		if taken[got] {
			t.Fatalf("Fresh #%d returned taken ID %s", i, got)
		}
		if got != want {
			t.Fatalf("Fresh #%d = %s, map-based namer gives %s", i, got, want)
		}
	}
}

// TestNamerHugeIndex checks that a huge taken index does not size the
// dense slice and is still skipped.
func TestNamerHugeIndex(t *testing.T) {
	nm := newNamer(namerFunc(t))
	if len(nm.taken) > 16 {
		t.Fatalf("dense slice has %d entries; v99999999 must not size it", len(nm.taken))
	}
	nm.n = 99999998
	for _, want := range []string{"v99999998", "v100000000"} {
		if got := nm.Fresh(); got != want {
			t.Fatalf("Fresh = %s, want %s", got, want)
		}
	}
}
