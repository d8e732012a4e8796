package dist

import (
	"context"
	"encoding/json"
	"fmt"

	"ruby/internal/engine"
	"ruby/internal/obs"
	"ruby/internal/search"
)

// RunLocal executes a plan's shards sequentially in-process and merges them
// exactly as the coordinator does — the single-node reference a distributed
// run of the same spec and plan must reproduce bit-for-bit (mapping and
// objective). Cancelling the context aborts mid-shard with the merge of the
// shards completed so far and the context's error.
func RunLocal(ctx context.Context, spec *JobSpec, plan *Plan) (*Merged, error) {
	ctx, span := obs.StartSpan(ctx, "dist:local")
	defer span.End()

	ev, sp, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(sp); err != nil {
		return nil, err
	}
	obj, err := ParseObjective(spec.Objective)
	if err != nil {
		return nil, err
	}
	base := search.Options{
		Algo:                 plan.Algo,
		ConsecutiveNoImprove: spec.NoImprove,
		Objective:            obj,
	}
	eng := engine.New(ev)

	c := NewCoordinator(plan, 0, nil)
	for _, sh := range plan.Shards {
		sr, err := search.NewSearcherFor(plan.Algo, sp, eng, sh.Options(base), 0)
		if err != nil {
			return nil, err
		}
		res, err := search.RunCheckpointed(ctx, sr, search.CheckpointConfig{})
		if err != nil {
			return c.Merged(), err
		}
		report := ShardResult{Evaluated: res.Evaluated, Valid: res.Valid}
		if res.Best != nil {
			raw, err := json.Marshal(res.Best)
			if err != nil {
				return nil, fmt.Errorf("dist: encode shard %d incumbent: %w", sh.Index, err)
			}
			report.Mapping = raw
			report.Objective = obj.Value(&res.BestCost)
		}
		c.Complete(sh.Index, "local", report)
	}
	return c.Merged(), nil
}
