package main

import (
	"time"

	"ratte/internal/compiler"
	"ratte/internal/difftest"
	"ratte/internal/ir"
)

// passStat is one pass's replay totals.
type passStat struct {
	busy time.Duration
	runs int
	ok   int // runs that succeeded, the base of opsOut
	ops  int // IR ops after each successful run, summed
}

// replayer re-runs a module's compilation pass by pass, through
// compiler.NewPipeline, over the same prefix tree (and the same clones
// at branch points) as compiler.CompileConfigs and CompilePlans, with a
// timer around every pass and clone.
type replayer struct {
	opts   *compiler.Options
	pipes  map[string]*compiler.Pipeline
	passes map[string]*passStat
	clone  time.Duration
	clones int
	// naive estimates compiling every job from scratch: one clone of
	// the source per job plus every tree node's pass time once per job
	// through that node.
	naive time.Duration
	nodes int // pass executions
	steps int // pass executions without sharing
}

func newReplayer(opts *compiler.Options) *replayer {
	r := &replayer{opts: opts, pipes: make(map[string]*compiler.Pipeline), passes: make(map[string]*passStat)}
	for _, name := range compiler.PassNames() {
		r.passes[name] = &passStat{}
	}
	return r
}

// total is the replay's pass and clone time.
func (r *replayer) total() time.Duration {
	d := r.clone
	for _, p := range r.passes {
		d += p.busy
	}
	return d
}

func (r *replayer) timedClone(m *ir.Module) *ir.Module {
	t := time.Now()
	c := m.Clone()
	r.clone += time.Since(t)
	r.clones++
	return c
}

// module replays the compilation of m under every job's pass list.
func (r *replayer) module(m *ir.Module, jobs [][]string) error {
	t := time.Now()
	_ = m.Clone()
	r.naive += time.Since(t) * time.Duration(len(jobs))
	var err error
	var rec func(m *ir.Module, jobs [][]string, depth int, owned bool)
	rec = func(m *ir.Module, jobs [][]string, depth int, owned bool) {
		done := 0
		var order []string
		groups := make(map[string][][]string)
		for _, j := range jobs {
			if depth == len(j) {
				done++
				continue
			}
			name := j[depth]
			if _, ok := groups[name]; !ok {
				order = append(order, name)
			}
			groups[name] = append(groups[name], j)
		}
		if done > 0 {
			// One module per finished job, cloned as the compiler does.
			clones := done - 1
			if !owned || len(order) > 0 {
				clones++
			}
			for i := 0; i < clones; i++ {
				r.timedClone(m)
			}
		}
		for i, name := range order {
			g := groups[name]
			gm := m
			if !(owned && i == len(order)-1) {
				gm = r.timedClone(m)
			}
			pipe, ok := r.pipes[name]
			if !ok {
				if pipe, err = compiler.NewPipeline(name); err != nil {
					return
				}
				r.pipes[name] = pipe
			}
			t := time.Now()
			perr := pipe.Run(gm, r.opts)
			d := time.Since(t)
			ps := r.passes[name]
			ps.busy += d
			ps.runs++
			r.nodes++
			r.steps += len(g)
			r.naive += d * time.Duration(len(g))
			if perr != nil {
				continue
			}
			ps.ok++
			ps.ops += gm.NumOps()
			rec(gm, g, depth+1, true)
		}
	}
	rec(m, jobs, 0, false)
	return err
}

// jobs is the pass list of every build configuration or plan.
func (b *bench) jobs() ([][]string, error) {
	if len(b.plans) > 0 {
		js := make([][]string, len(b.plans))
		for i, p := range b.plans {
			js[i] = p.Passes
		}
		return js, nil
	}
	var js [][]string
	for _, c := range difftest.BuildConfigs {
		names, err := compiler.PipelineForConfig(b.w.preset, c.Level, c.SkipArithExpand)
		if err != nil {
			return nil, err
		}
		js = append(js, names)
	}
	return js, nil
}
