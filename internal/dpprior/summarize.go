package dpprior

import (
	"fmt"
	"math"

	"github.com/drdp/drdp/internal/mat"
)

// This file is the upward-summarization half of the hierarchical
// (edge → region → cloud) topology: a regional aggregator absorbs raw
// device posteriors locally and ships the cloud a handful of component
// summaries instead. The cloud ingests the summaries through the same
// BatchAddTask path as raw tasks — a summary IS a TaskPosterior, just
// one that stands for a cluster of them.

// DefaultSummaryComponents caps a summarization window's output when
// BuildOptions.MaxComponents is unset (0 means "unlimited" to Build,
// which would defeat summarization).
const DefaultSummaryComponents = 8

// ComponentTasks converts a prior's mixture components back into task
// posteriors: one pseudo-task per component, with the component's mean
// and covariance and totalN apportioned across components by their
// Count share (minimum 1 observation each, so every summary passes
// validation). The result is deterministic in component order.
func ComponentTasks(p *Prior, totalN int) []TaskPosterior {
	if p == nil || len(p.Components) == 0 {
		return nil
	}
	var countSum float64
	for _, c := range p.Components {
		countSum += c.Count
	}
	if countSum <= 0 {
		countSum = float64(len(p.Components))
	}
	if totalN < len(p.Components) {
		totalN = len(p.Components)
	}
	out := make([]TaskPosterior, 0, len(p.Components))
	for _, c := range p.Components {
		share := c.Count / countSum
		if c.Count <= 0 {
			share = 1 / countSum
		}
		n := int(math.Round(share * float64(totalN)))
		if n < 1 {
			n = 1
		}
		if n > MaxTaskN {
			n = MaxTaskN
		}
		mu := make(mat.Vec, len(c.Mu))
		copy(mu, c.Mu)
		sigma := &mat.Dense{Rows: c.Sigma.Rows, Cols: c.Sigma.Cols,
			Data: append([]float64(nil), c.Sigma.Data...)}
		out = append(out, TaskPosterior{Mu: mu, Sigma: sigma, N: n})
	}
	return out
}

// SummarizeTasks clusters a window of task posteriors into at most
// opts.MaxComponents pseudo-tasks via a local DP build, preserving the
// window's total observation count. This is what a regional aggregator
// uploads instead of the raw window: O(components) summaries standing
// for O(window) tasks. Deterministic given tasks (in order) and opts.
// A window no larger than the component budget is returned as-is, in
// dense form — summarizing would only blur it without saving bytes.
func SummarizeTasks[T Task](tasks []T, opts BuildOptions) ([]TaskPosterior, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	budget := opts.MaxComponents
	if budget <= 0 {
		budget = DefaultSummaryComponents
		opts.MaxComponents = budget
	}
	if len(tasks) <= budget {
		out := make([]TaskPosterior, len(tasks))
		for i, t := range tasks {
			out[i] = t.dense()
		}
		return out, nil
	}
	p, err := Build(tasks, opts)
	if err != nil {
		return nil, fmt.Errorf("dpprior: summarize window of %d tasks: %w", len(tasks), err)
	}
	totalN := 0
	for _, t := range tasks {
		totalN += t.count()
		if totalN > MaxTaskN {
			totalN = MaxTaskN
			break
		}
	}
	return ComponentTasks(p, totalN), nil
}

// WireSize estimates the task's encoded size in bytes on the binary
// codec: 8 bytes per float64 across Mu and Sigma plus fixed framing.
// Used for upload-byte accounting in the regional tier, where the exact
// framing overhead is noise next to the matrix payload.
func (t TaskPosterior) WireSize() int {
	n := 8 * len(t.Mu)
	if t.Sigma != nil {
		n += 8 * len(t.Sigma.Data)
	}
	return n + 16
}
