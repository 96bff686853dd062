package semantics_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/scoped"
	"ratte/internal/semantics"
)

// refTable is the reference for Store.Candidates: a stack of per-scope
// type maps queried the way the store once was — collect the visible
// IDs, sort them numeric-then-lexical, and resolve each through the
// scopes, taking the concrete value from the store's own context.
type refTable struct {
	scopes []refScope
}

type refScope struct {
	kind scoped.ScopeType
	defs map[string]refDef
}

// refDef remembers how a binding was made, so that a redefinition
// attempt can repeat it exactly.
type refDef struct {
	val ir.Value
	arg bool
	n   int64
}

func (r *refTable) push(kind scoped.ScopeType) {
	r.scopes = append(r.scopes, refScope{kind: kind, defs: map[string]refDef{}})
}

func (r *refTable) lookup(id string) (refDef, bool) {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if d, ok := r.scopes[i].defs[id]; ok {
			return d, true
		}
		if r.scopes[i].kind == scoped.IsolatedFromAbove {
			break
		}
	}
	return refDef{}, false
}

func (r *refTable) visibleIDs() []string {
	seen := map[string]bool{}
	var ids []string
	for i := len(r.scopes) - 1; i >= 0; i-- {
		for id := range r.scopes[i].defs {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		if r.scopes[i].kind == scoped.IsolatedFromAbove {
			break
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		ni, ei := strconv.Atoi(ids[i])
		nj, ej := strconv.Atoi(ids[j])
		if ei == nil && ej == nil {
			return ni < nj
		}
		if (ei == nil) != (ej == nil) {
			return ei == nil
		}
		return ids[i] < ids[j]
	})
	return ids
}

func (r *refTable) candidates(s *semantics.Store, pred func(ir.Value, rtval.Value) bool) []semantics.Candidate {
	var out []semantics.Candidate
	for _, id := range r.visibleIDs() {
		d, _ := r.lookup(id)
		rt, ok := s.Value(id)
		if !ok {
			continue
		}
		if pred == nil || pred(d.val, rt) {
			out = append(out, semantics.Candidate{Val: d.val, RT: rt})
		}
	}
	return out
}

// propertyIDs mixes canonical numeric IDs, defined in no particular
// order, with the non-numeric names region generators bind.
var propertyIDs = func() []string {
	ids := []string{"arg0", "arg1", "arg10", "x", "a2"}
	for i := 0; i < 24; i++ {
		ids = append(ids, strconv.Itoa(i))
	}
	return ids
}()

var propertyTypes = []ir.Type{ir.I64, ir.I32, ir.Index}

func sample(t ir.Type, n int64) rtval.Value {
	if ir.TypeEqual(t, ir.Index) {
		return rtval.NewIndex(n)
	}
	w, _ := ir.BitWidth(t)
	return rtval.NewInt(w, n)
}

// multipleOfThree is the filtered query: it looks at both the static
// type and the concrete value, like the generator's operand picks.
func multipleOfThree(v ir.Value, rt rtval.Value) bool {
	i, ok := rt.(rtval.Int)
	return ok && !ir.TypeEqual(v.Type, ir.I32) && i.Signed()%3 == 0
}

// TestCandidatesMatchReference drives random PushScope / PopScope /
// Apply / BindArg sequences — non-monotone numeric IDs, non-numeric
// IDs, shadowing across scopes and same-scope redefinitions — and
// checks after every step that Candidates, unfiltered and filtered,
// equals the reference algorithm, and that every same-scope
// redefinition is rejected.
func TestCandidatesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newStore()
		ref := &refTable{}
		ref.push(scoped.Standard)
		var trace []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d after %v: %s", seed, trace, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 80; step++ {
			switch k := r.Intn(10); {
			case k < 2:
				kind := scoped.Standard
				if r.Intn(3) == 0 {
					kind = scoped.IsolatedFromAbove
				}
				s.PushScope(kind)
				ref.push(kind)
				trace = append(trace, "push "+kind.String())
			case k < 3:
				if len(ref.scopes) == 1 {
					continue
				}
				s.PopScope()
				ref.scopes = ref.scopes[:len(ref.scopes)-1]
				trace = append(trace, "pop")
			default:
				id := propertyIDs[r.Intn(len(propertyIDs))]
				d := refDef{
					val: ir.V(id, propertyTypes[r.Intn(len(propertyTypes))]),
					arg: k < 6,
					n:   r.Int63n(40) - 20,
				}
				inner := ref.scopes[len(ref.scopes)-1].defs
				old, dup := inner[id]
				if dup {
					// Repeat the original definition: the store must
					// still reject it, and the context's rebinding
					// leaves the concrete value unchanged.
					d = old
				}
				var err error
				if d.arg {
					err = s.BindArg(d.val, sample(d.val.Type, d.n))
					trace = append(trace, "arg "+id)
				} else {
					err = s.Apply(constOp(id, d.n, d.val.Type))
					trace = append(trace, "apply "+id)
				}
				switch {
				case dup && err == nil:
					fail("redefinition of %q in the same scope was accepted", id)
				case !dup && err != nil:
					fail("define %q: %v", id, err)
				}
				inner[id] = d
			}
			for _, pred := range []func(ir.Value, rtval.Value) bool{nil, multipleOfThree} {
				got := s.Candidates(pred)
				want := ref.candidates(s, pred)
				if !reflect.DeepEqual(got, want) {
					fail("Candidates = %v, want %v", got, want)
				}
				// The caller owns the result: scrambling it must not
				// disturb the store.
				for i := range got {
					got[i] = semantics.Candidate{}
				}
			}
		}
	}
}
