package main

// batch-quick: the whole catalog at preset quick through exp.RunBatch, in
// process with Jobs 1, from a cold instance cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/inst"
)

type batchSession struct {
	exps []*exp.Experiment
	cfg  exp.RunConfig
}

func setupBatch(o runOpts) (session, error) {
	s := &batchSession{
		exps: exp.List(),
		cfg:  exp.RunConfig{Preset: exp.PresetQuick, Seed: o.seed},
	}
	// One batch fills whatever a fresh process fills lazily (heap, page
	// cache) before anything is timed.
	if _, _, err := s.batch(nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up batch: %w", err)
	}
	return s, nil
}

func (s *batchSession) close() {}

// batch runs one op: a cold batch with Jobs 1, as a fresh `experiments -run
// all -preset quick` pays it. The cache reset happens before the timer
// starts.
func (s *batchSession) batch(tr *tracer, trace uint64) ([]*exp.Result, time.Duration, error) {
	exp.InstanceCache().Reset()
	sp := tr.begin("exp.RunBatch", "", 0, trace)
	start := time.Now()
	res, err := exp.RunBatch(context.Background(), s.exps, exp.BatchOptions{Jobs: 1, Config: s.cfg})
	d := time.Since(start)
	sp.end()
	return res, d, err
}

// canonical renders every result in its persisted form, keyed by ResultKey.
func canonical(results []*exp.Result) (map[string][]byte, error) {
	out := make(map[string][]byte, len(results))
	for _, r := range results {
		raw, err := exp.CanonicalJSON(r)
		if err != nil {
			return nil, err
		}
		out[exp.ResultKey(r)] = raw
	}
	return out, nil
}

// sameBytes reports the first result whose canonical bytes differ from ref.
func sameBytes(ref map[string][]byte, results []*exp.Result) error {
	if len(results) != len(ref) {
		return fmt.Errorf("%d results, want %d", len(results), len(ref))
	}
	got, err := canonical(results)
	if err != nil {
		return err
	}
	for key, raw := range got {
		if !bytes.Equal(raw, ref[key]) {
			return fmt.Errorf("%s: canonical bytes differ from the serial reference", key)
		}
	}
	return nil
}

// reference runs the batch serially in process (Jobs 1). At seed 0 the
// batch uses every experiment's default seed, so it must also reproduce the
// committed BENCH_experiments.json exactly.
func (s *batchSession) reference(out *outcome) (map[string][]byte, error) {
	exp.InstanceCache().Reset()
	res, err := exp.RunBatch(context.Background(), s.exps, exp.BatchOptions{Jobs: 1, Config: s.cfg})
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	ref, err := canonical(res)
	if err != nil {
		return nil, err
	}
	if s.cfg.Seed == 0 {
		path, err := repoFile("BENCH_experiments.json")
		if err != nil {
			return nil, err
		}
		base, err := exp.LoadResults(path)
		if err != nil {
			return nil, err
		}
		for _, d := range exp.Compare(base, res, 0) {
			out.fail("reference vs %s: %s %s: %s", path, d.Key, d.Field, d.Detail)
		}
	}
	return ref, nil
}

func (s *batchSession) run(o runOpts, out *outcome) error {
	ref, err := s.reference(out)
	if err != nil {
		return err
	}
	var (
		busy     time.Duration
		perOp    = make(map[string]samples) // traced layer values, one per op
		deadline = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		b0, _ := heapAllocs()
		res, d, err := s.batch(o.tr, uint64(i+1))
		b1, _ := heapAllocs()
		out.attempted++
		if err != nil {
			out.fail("batch %d: %v", i, err)
			continue
		}
		out.ops = append(out.ops, d)
		out.allocBytes += b1 - b0
		out.allocOps++
		busy += d
		if err := sameBytes(ref, res); err != nil {
			out.fail("batch %d: %v", i, err)
		}
		if o.tr == nil {
			continue
		}
		var steps int64
		for _, r := range res {
			steps += r.Steps
		}
		perOp["sim.steps_per_s"] = append(perOp["sim.steps_per_s"], float64(steps)/d.Seconds())
		sampleInst(perOp)
		if err := s.replay(o.tr, uint64(i+1), ref, perOp); err != nil {
			out.fail("replay %d: %v", i, err)
		}
	}
	out.opsPerSec = float64(len(out.ops)) / busy.Seconds()
	if o.tr != nil {
		opP50 := durationsMS(out.ops).median()
		for name, v := range perOp {
			if name == "exp.task_sum_ms" {
				out.layer("exp.task_share", v.median()/opP50, len(v))
				continue
			}
			out.layer(name, v.median(), len(v))
		}
	}
	return nil
}

// sampleInst records the instance-cache counters of the op that just ran.
func sampleInst(perOp map[string]samples) {
	st := exp.InstanceCache().Stats()
	for _, k := range inst.Kinds() {
		name := "inst.build_ms." + string(k)
		perOp[name] = append(perOp[name], ms(st.Kinds[k].BuildTime))
	}
	perOp["inst.builds"] = append(perOp["inst.builds"], float64(st.Builds))
	perOp["inst.hits"] = append(perOp["inst.hits"], float64(st.Hits))
	if req := st.Hits + st.Misses; req > 0 {
		perOp["inst.hit_ratio"] = append(perOp["inst.hit_ratio"], float64(st.Hits)/float64(req))
	}
}

// family groups catalog entries for exp.task_ms.<family>.
func family(e *exp.Experiment) string {
	if e.Plan == nil {
		return "table"
	}
	for _, f := range []string{"hierarchical", "weightaug", "weighted", "copyfraction", "twocoloring", "ensemble"} {
		if strings.HasPrefix(e.Name, f) {
			return f
		}
	}
	return "other"
}

// planOf returns e's task plan. An experiment without a Plan is one task
// whose output is the whole Result and crosses the wire as plain JSON, the
// way RunBatch treats it.
func planOf(e *exp.Experiment, cfg exp.RunConfig) (*exp.TaskPlan, error) {
	if e.Plan != nil {
		return e.Plan(cfg)
	}
	return &exp.TaskPlan{
		Tasks: []exp.Task{{Label: e.Name, Run: func(ctx context.Context) (any, error) { return e.Run(ctx, cfg) }}},
		Assemble: func(outs []any) (*exp.Result, error) {
			r, ok := outs[0].(*exp.Result)
			if !ok {
				return nil, fmt.Errorf("%s: output is %T, not *Result", e.Name, outs[0])
			}
			return r, nil
		},
		Encode: func(out any) (json.RawMessage, error) { return json.Marshal(out) },
		Decode: func(raw json.RawMessage) (any, error) {
			var r exp.Result
			err := json.Unmarshal(raw, &r)
			return &r, err
		},
	}, nil
}

// replay re-runs the batch stage by stage so each stage gets its own span:
// plan derivation, every task in turn (Jobs 1, as the op runs them), the
// wire encoding and decoding of every task output, assembly from the
// decoded outputs, and canonical encoding. The assembled bytes must equal
// the reference.
func (s *batchSession) replay(tr *tracer, trace uint64, ref map[string][]byte, perOp map[string]samples) error {
	add := func(name string, v float64) { perOp[name] = append(perOp[name], v) }
	exp.InstanceCache().Reset()
	root := tr.begin("exp.replay", "", 0, trace)
	defer root.end()

	var planMS float64
	plans := make([]*exp.TaskPlan, len(s.exps))
	tasks := 0
	for i, e := range s.exps {
		sp := tr.begin("exp.plan", e.Name, root.id(), trace)
		p, err := planOf(e, s.cfg)
		planMS += sp.end()
		if err != nil {
			return err
		}
		plans[i] = p
		tasks += len(p.Tasks)
	}

	outs := make([][]any, len(plans))
	durs := make([][]float64, len(plans))
	for i, p := range plans {
		outs[i] = make([]any, len(p.Tasks))
		durs[i] = make([]float64, len(p.Tasks))
		for j, t := range p.Tasks {
			sp := tr.begin("exp.task", family(s.exps[i]), root.id(), trace)
			out, err := t.Run(context.Background())
			durs[i][j] = sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", t.Label, err)
			}
			outs[i][j] = out
		}
	}
	st := exp.InstanceCache().Stats()

	var encMS, decMS, asmMS, canMS, taskSum float64
	var wireBytes, canBytes int
	famMS := make(map[string]float64)
	for i, p := range plans {
		decoded := make([]any, len(outs[i]))
		for j, o := range outs[i] {
			sp := tr.begin("exp.encode", "", root.id(), trace)
			raw, err := p.Encode(o)
			encMS += sp.end()
			if err != nil {
				return err
			}
			wireBytes += len(raw)
			sp = tr.begin("exp.decode", "", root.id(), trace)
			decoded[j], err = p.Decode(raw)
			decMS += sp.end()
			if err != nil {
				return err
			}
			famMS[family(s.exps[i])] += durs[i][j]
			taskSum += durs[i][j]
		}
		sp := tr.begin("exp.assemble", s.exps[i].Name, root.id(), trace)
		res, err := p.Assemble(decoded)
		asmMS += sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("exp.canonical", s.exps[i].Name, root.id(), trace)
		raw, err := exp.CanonicalJSON(res)
		canMS += sp.end()
		if err != nil {
			return err
		}
		canBytes += len(raw)
		if key := exp.ResultKey(res); !bytes.Equal(raw, ref[key]) {
			return fmt.Errorf("%s: replayed bytes differ from the serial reference", key)
		}
	}
	for _, f := range []string{"hierarchical", "weighted", "weightaug", "copyfraction", "twocoloring", "ensemble", "table"} {
		add("exp.task_ms."+f, famMS[f])
	}
	add("exp.task_self_ms", taskSum-ms(st.BuildTime))
	add("exp.plan_ms", planMS)
	add("exp.assemble_ms", asmMS)
	add("exp.canonical_ms", canMS)
	add("exp.canonical_bytes", float64(canBytes))
	add("exp.tasks_per_batch", float64(tasks))
	add("exp.encode_ms", encMS)
	add("exp.decode_ms", decMS)
	add("exp.wire_bytes", float64(wireBytes))
	// run divides this by op_p50_ms: the share of a batch spent in tasks.
	add("exp.task_sum_ms", taskSum)
	return nil
}
