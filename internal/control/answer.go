package control

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// appendCommand appends c's wire form to list.
func appendCommand(list []protocol.Command, c Command) []protocol.Command {
	switch c := c.(type) {
	case Rebalance:
		return append(list, protocol.Command{Plan: protocol.AnnounceFromPlan(c.Plan)})
	case ScaleOut:
		return append(list, protocol.Command{Resize: &protocol.Resize{Delta: 1}})
	case ScaleIn:
		return append(list, protocol.Command{Resize: &protocol.Resize{Delta: -1}})
	case SetSplit:
		ann := &protocol.SplitAnnounce{}
		for _, sp := range c.Set {
			ann.Set = append(ann.Set, protocol.SplitEntry{Key: sp.Key, Fan: sp.Fan})
		}
		return append(list, protocol.Command{Split: ann})
	}
	return list
}

// Answer is the controller side of one round: it checks the round's
// report, takes the snapshot and stage context from it, asks each
// policy to decide, and returns one Commands message carrying every
// command in order (none for a held round). Once CheckMerged has passed
// the report, its run becomes the snapshot's keys as it stands, valid
// as long as the sender keeps it (until the round after next: the
// stage's own buffer in process, the coordinator's per-stage copy in a
// cluster). Anything else in a report's place, or a report that fails
// the check, is an error and reaches no policy.
func Answer(policies []Policy, m *protocol.Message) (*protocol.Message, error) {
	r := m.Report
	if r == nil {
		return nil, fmt.Errorf("control: %s where the round's report belongs", m.Kind())
	}
	if err := r.CheckMerged(); err != nil {
		return nil, err
	}
	snap := &stats.Snapshot{Interval: r.Interval, ND: r.Tasks, Keys: r.Keys}
	env := Env{
		Interval:  r.Interval,
		Tasks:     r.Tasks,
		Capacity:  r.Capacity,
		Emitted:   r.Emitted,
		Budget:    r.Budget,
		Routable:  r.Routable,
		Resizable: r.Resizable,
	}
	for _, e := range r.Split {
		env.Split = append(env.Split, SplitSpec{Key: e.Key, Fan: e.Fan})
	}
	cmds := &protocol.Commands{Interval: env.Interval}
	for _, p := range policies {
		for _, c := range p.Decide(env, snap) {
			cmds.List = appendCommand(cmds.List, c)
		}
	}
	return &protocol.Message{Commands: cmds}, nil
}
