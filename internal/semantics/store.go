// Package semantics implements the incremental semantic store Ratte's
// generators consult while constructing programs (paper §3.1–§3.3).
//
// The store is a tuple of independently-updatable incremental states —
// exactly the shape of Definition 3.3, S(P') = f(S(P), e):
//
//   - the dialect-agnostic *type table* (Figure 6, left): which SSA
//     values are visible in the current scope and at which syntactic
//     types, kept as the candidate index described on Store;
//   - the dialect-agnostic *fresh-ID source* (Figure 6, right);
//   - the *concrete interpretation*: the runtime value of every visible
//     SSA value, obtained by evaluating each appended operation with
//     the reference kernels the moment it is generated. Concrete values
//     subsume the paper's well-definedness analysis (§3.4) and concrete
//     container-shape tracking (§3.3): both are fields of the runtime
//     value.
//
// Apply is the only mutation on a generated prefix: it evaluates one
// extension operation and updates every sub-state, so the cost of
// keeping the semantics current is proportional to the extension, never
// to the whole prefix.
package semantics

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ratte/internal/interp"
	"ratte/internal/ir"
	"ratte/internal/rtval"
	"ratte/internal/scoped"
)

// Store carries the semantic state of a partially-generated program.
//
// The type table is a candidate index: every binding of every open
// scope, in definition order, outermost scope first, each paired with
// its concrete value once at definition time. Only the innermost scope
// grows and PopScope truncates, so each open scope owns a contiguous
// run of the slice, and the visible bindings are the suffix starting at
// the innermost IsolatedFromAbove scope. Candidates is a scan of that
// suffix.
type Store struct {
	ctx    *interp.Context
	index  []entry
	scopes []scopeMark
	hits   []int // Candidates' scratch: positions of matching bindings
	fresh  int
}

// entry is one binding of the candidate index.
type entry struct {
	Candidate
	num     int  // the ID's value when it is numeric
	numeric bool // whether the ID parses as a decimal integer
	// breaks counts the positions i in index[1..this] whose entry does
	// not follow index[i-1] in candidate order. A run of the index with
	// no breaks is strictly ascending: already sorted, free of
	// duplicates, and so free of shadowing.
	breaks int
}

// scopeMark records where one open scope starts in the index and
// where the bindings visible from it start.
type scopeMark struct {
	start   int
	visible int
}

// NewStore builds a store whose concrete interpretation uses the given
// interpreter's kernels (normally the composed reference interpreter of
// the dialects being fuzzed).
func NewStore(in *interp.Interpreter) *Store {
	return &Store{
		ctx:    interp.NewContext(in),
		scopes: []scopeMark{{}},
	}
}

// Context exposes the underlying evaluation context (for output
// retrieval and function registration).
func (s *Store) Context() *interp.Context { return s.ctx }

// FreshID hands out the next free SSA identifier — the incremental
// next-ID semantics of Figure 6.
func (s *Store) FreshID() string {
	id := strconv.Itoa(s.fresh)
	s.fresh++
	return id
}

// FreshValue allocates a fresh value of the given type.
func (s *Store) FreshValue(t ir.Type) ir.Value { return ir.V(s.FreshID(), t) }

// PushScope/PopScope track region nesting during generation.
func (s *Store) PushScope(kind scoped.ScopeType) {
	s.ctx.PushScope(kind)
	m := scopeMark{start: len(s.index), visible: s.scopes[len(s.scopes)-1].visible}
	if kind == scoped.IsolatedFromAbove {
		m.visible = m.start
	}
	s.scopes = append(s.scopes, m)
}

// PopScope leaves the innermost scope.
func (s *Store) PopScope() {
	s.ctx.PopScope()
	start := s.scopes[len(s.scopes)-1].start
	clear(s.index[start:])
	s.index = s.index[:start]
	s.scopes = s.scopes[:len(s.scopes)-1]
}

// BindArg introduces a block argument with a concrete sample value
// (used when generating region bodies whose arguments are supplied by
// the enclosing operation at run time).
func (s *Store) BindArg(v ir.Value, sample rtval.Value) error {
	if err := s.ctx.Define(v, sample); err != nil {
		return err
	}
	return s.define(v, sample)
}

// AddFunc registers a helper function so that generated func.call
// operations can be evaluated during generation.
func (s *Store) AddFunc(f *ir.Operation) error { return s.ctx.AddFunc(f) }

// Apply evaluates one extension operation and folds its results into
// every sub-state. An error means the extension would introduce
// undefined behaviour or a trap — the generator must never produce one,
// so callers treat it as a generator defect.
func (s *Store) Apply(op *ir.Operation) error {
	if err := s.ctx.Eval(op); err != nil {
		return err
	}
	for _, r := range op.Results {
		rt, ok := s.ctx.Lookup(r.ID)
		if !ok {
			return fmt.Errorf("semantics: %s defined no value for %%%s", op.Name, r.ID)
		}
		if err := s.define(r, rt); err != nil {
			return err
		}
	}
	return nil
}

// define appends a binding to the innermost scope. SSA IDs must be
// unique within a scope — the first undesirable behaviour of the
// paper's Figure 4.
func (s *Store) define(v ir.Value, rt rtval.Value) error {
	num, err := strconv.Atoi(v.ID)
	e := entry{Candidate: Candidate{Val: v, RT: rt}, num: num, numeric: err == nil}
	n := len(s.index)
	if n > 0 {
		prev := &s.index[n-1]
		e.breaks = prev.breaks
		if compareIDs(prev, &e) >= 0 {
			e.breaks++
		}
	}
	start := s.scopes[len(s.scopes)-1].start
	if n > start && e.breaks != s.index[start].breaks {
		// The innermost scope is not strictly ascending up to e, so e
		// may repeat one of its IDs.
		for i := start; i < n; i++ {
			if s.index[i].Val.ID == v.ID {
				return fmt.Errorf("semantics: redefinition of %q in the same scope", v.ID)
			}
		}
	}
	s.index = append(s.index, e)
	return nil
}

// Value returns the concrete runtime value of a visible SSA value.
func (s *Store) Value(id string) (rtval.Value, bool) { return s.ctx.Lookup(id) }

// Candidate is a visible SSA value paired with its concrete value.
type Candidate struct {
	Val ir.Value
	RT  rtval.Value
}

// Candidates returns every visible value satisfying pred, in candidate
// order: numeric IDs ascending by value, then the other IDs in lexical
// order, so generation is reproducible. A value shadowed by an inner
// scope's binding of the same ID is reported once, as the inner one.
// The returned slice belongs to the caller.
func (s *Store) Candidates(pred func(v ir.Value, rt rtval.Value) bool) []Candidate {
	vis := s.index[s.scopes[len(s.scopes)-1].visible:]
	s.hits = s.hits[:0]
	if len(vis) == 0 || vis[len(vis)-1].breaks == vis[0].breaks {
		// Fresh IDs are handed out in ascending order, so definition
		// order is almost always candidate order already.
		for i := range vis {
			if pred == nil || pred(vis[i].Val, vis[i].RT) {
				s.hits = append(s.hits, i)
			}
		}
	} else {
		for _, i := range sortedVisible(vis) {
			if pred == nil || pred(vis[i].Val, vis[i].RT) {
				s.hits = append(s.hits, i)
			}
		}
	}
	if len(s.hits) == 0 {
		return nil
	}
	out := make([]Candidate, len(s.hits))
	for j, i := range s.hits {
		out[j] = vis[i].Candidate
	}
	return out
}

// sortedVisible returns the positions of the visible bindings in
// candidate order, keeping only the innermost binding of a shadowed ID.
// Inner scopes follow outer ones in the index, so the innermost binding
// is the last one.
func sortedVisible(vis []entry) []int {
	order := make([]int, len(vis))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return compareIDs(&vis[a], &vis[b]) })
	kept := order[:0]
	for _, i := range order {
		if n := len(kept); n > 0 && vis[kept[n-1]].Val.ID == vis[i].Val.ID {
			kept[n-1] = i
			continue
		}
		kept = append(kept, i)
	}
	return kept
}

// compareIDs is the candidate order: numeric IDs by value, then the
// others lexically. Distinct spellings of one number ("7", "07") fall
// back to lexical order, so the order is total over distinct IDs.
func compareIDs(a, b *entry) int {
	switch {
	case a.numeric != b.numeric:
		if a.numeric {
			return -1
		}
		return 1
	case a.numeric && a.num != b.num:
		return cmp.Compare(a.num, b.num)
	}
	return strings.Compare(a.Val.ID, b.Val.ID)
}

// Output returns everything printed by evaluated vector.print ops: the
// expected output of the generated program (the generation-time oracle).
func (s *Store) Output() string { return s.ctx.Output() }
