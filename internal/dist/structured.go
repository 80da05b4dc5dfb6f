// Distributed serializing actions: the paper's concluding remark — "to
// embark on building a distributed version" of the coloured-action
// scheme — realised for the serializing structure.
//
// A RemoteSerializing is a serializing action whose constituents are
// distributed atomic actions (full two-phase commit). The fig 11 colour
// scheme is mirrored at every participant: each node the structure
// touches hosts a volatile container action carrying the structure's
// "blue" colour, and every constituent's participant action is coloured
// {red_i, blue} with red writes, blue reads and blue exclusive-read
// companions. A constituent's commit therefore makes its effects
// permanent at every node (red, via the commit protocol) while all the
// locks it held pass to the local containers (blue) — outsiders stay
// locked out across the whole cluster until the structure ends.
//
// A constituent commits like any other transaction: its Commit returns at
// the forced decision, and each writer's commit rides the next message
// there. The structure's end or cancel is one end message per node, which
// carries every commit still owed there before it ends the container.
//
// Containers are volatile, like all locks: a participant crash releases
// that node's retained locks (the protection window shrinks) but never
// un-commits constituent effects, which is exactly the serializing
// action's relaxed failure atomicity.
package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mca/internal/action"
	"mca/internal/colour"
	"mca/internal/ids"
	"mca/internal/trace"
)

// ErrStructureEnded is returned when beginning a constituent of an
// ended structure.
var ErrStructureEnded = errors.New("dist: structure already ended")

// StructureID identifies one distributed structure instance across the
// cluster. It reuses the action identifier space for uniqueness.
type StructureID ids.ActionID

// structureInfo is the colour scheme shipped with remote invocations of
// structured transactions. For a serializing constituent the container
// is the structure's "blue" and Write its fresh "red"; for a glued
// stage the container is its joint's pass colour, Write the stage's own
// colour, and Parent links the joint whose node-local container holds
// the locks passed on by the previous stage.
type structureInfo struct {
	Structure StructureID
	Container colour.Colour
	Write     colour.Colour
	// Companion, when true, gives the participant action a write
	// companion in the container colour (serializing constituents).
	Companion bool
	// ReadOwn, when true, makes reads use the write colour rather
	// than the container colour (glued stages read in their own
	// colour so unneeded read locks release at stage commit).
	ReadOwn bool
	// Parent, when non-nil, nests this structure's node-local
	// container under the parent structure's container.
	Parent *structureInfo
}

// footprint is what a distributed structure keeps under its lock: the
// nodes its transactions touched, which its end must reach, and whether
// it has ended.
type footprint struct {
	mu      sync.Mutex
	touched []ids.NodeID // a handful: a slice to scan
	ended   bool
}

func (f *footprint) noteTouched(n ids.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !slices.Contains(f.touched, n) {
		f.touched = append(f.touched, n)
	}
}

// endLocked marks the structure ended and returns the nodes it touched,
// or ErrStructureEnded when it had ended already. Caller holds f.mu.
func (f *footprint) endLocked() ([]ids.NodeID, error) {
	if f.ended {
		return nil, ErrStructureEnded
	}
	f.ended = true
	return slices.Clone(f.touched), nil
}

// RemoteSerializing coordinates a serializing action over distributed
// constituents.
type RemoteSerializing struct {
	inc  *incarnation
	id   StructureID
	blue colour.Colour
	// local is the coordinator-side container (retains locks on
	// coordinator-local objects).
	local *action.Action
	footprint
}

// BeginRemoteSerializing starts a distributed serializing action
// coordinated by this node.
func (m *Manager) BeginRemoteSerializing() (*RemoteSerializing, error) {
	blue := colour.Fresh()
	inc := m.cur.Load()
	local, err := inc.rt.Begin(action.WithColours(blue))
	if err != nil {
		return nil, err
	}
	return &RemoteSerializing{inc: inc, id: StructureID(local.ID()), blue: blue, local: local}, nil
}

// ID returns the structure identifier.
func (s *RemoteSerializing) ID() StructureID { return s.id }

// Container exposes the coordinator-side container action (lock
// introspection in tests).
func (s *RemoteSerializing) Container() *action.Action { return s.local }

// BeginConstituent starts the next constituent as a distributed atomic
// action. Its remote participant actions carry the structure's colour
// scheme, so committing it retains its locks at every node's container.
func (s *RemoteSerializing) BeginConstituent() (*Txn, error) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return nil, ErrStructureEnded
	}
	s.mu.Unlock()

	red := colour.Fresh()
	localAct, err := s.local.Begin(
		action.WithColours(red, s.blue),
		action.WithWriteColour(red),
		action.WithReadColour(s.blue),
		action.WithWriteCompanion(s.blue),
	)
	if err != nil {
		return nil, err
	}
	return s.inc.begin(localAct.ID(), localAct, &structureInfo{
		Structure: s.id,
		Container: s.blue,
		Write:     red,
		Companion: true,
	}, s.noteTouched), nil
}

// RunConstituent executes fn as one constituent, committing (two-phase)
// on nil and aborting on error or panic.
func (s *RemoteSerializing) RunConstituent(ctx context.Context, fn func(*Txn) error) error {
	txn, err := s.BeginConstituent()
	if err != nil {
		return err
	}
	return txn.run(ctx, fn)
}

// End terminates the structure: every node's container commits,
// releasing the retained locks. Constituent effects are permanent
// already; End never undoes anything.
func (s *RemoteSerializing) End(ctx context.Context) error {
	return s.finish(ctx, true)
}

// Cancel abandons the structure, releasing retained locks everywhere.
// Committed constituents survive — serializing actions are not failure
// atomic.
func (s *RemoteSerializing) Cancel(ctx context.Context) error {
	return s.finish(ctx, false)
}

func (s *RemoteSerializing) finish(ctx context.Context, commit bool) error {
	s.mu.Lock()
	nodes, err := s.endLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.inc.endStructure(ctx, s.id, s.local, nodes, commit)
}

// endStructure ends the structure's container at every node, then its
// coordinator-local container local, committing or aborting them. The
// nodes go concurrently: the structure is over everywhere, no node's
// outcome depends on another's, and the end is idempotent at a node that
// never hosted the structure. Each node's end carries every commit this
// node owes it, sent or not — a commit is idempotent there — so the
// container ends with no constituent still prepared in it: Cancel cannot
// undo a committed one. Commits past a message's worth go first, in end
// messages of their own.
func (inc *incarnation) endStructure(ctx context.Context, id StructureID, local *action.Action, nodes []ids.NodeID, commit bool) error {
	results := inc.fanout(ctx, RoundStructure, ids.ActionID(id), trace.Context{}, nodes, false,
		func(ctx context.Context, n ids.NodeID) error {
			for owed := inc.owed.commitsTo(n); ; {
				q := &endReq{}
				for ; len(owed) > 0 && q.Commit.n < maxOwedBatch; owed = owed[1:] {
					q.Commit = q.Commit.add(owed[0])
				}
				if len(owed) == 0 {
					q.Structure, q.CommitStructure = id, commit
				}
				if err := inc.sendEnd(ctx, n, q); err != nil || q.Structure != 0 {
					return err
				}
			}
		})
	var err error
	switch {
	case local.Status() != action.Active:
	case commit:
		err = local.Commit()
	default:
		err = local.Abort()
	}
	if n, ferr, failed := firstFailure(results); failed {
		err = fmt.Errorf("structure %v at %v: %w", id, n, ferr)
	}
	return err
}

// --- participant side ---

// structureContainerLocked returns (creating if needed) this node's
// container action for the structure, carrying the container colour and
// nested under the parent structure's container when the info names one;
// nil for a transaction outside structures. Caller holds inc.mu.
func (inc *incarnation) structureContainerLocked(info *structureInfo) (*action.Action, error) {
	if info == nil {
		return nil, nil
	}
	if a, ok := inc.containers[info.Structure]; ok {
		return a, nil
	}
	var (
		a   *action.Action
		err error
	)
	if info.Parent != nil {
		parent, perr := inc.structureContainerLocked(info.Parent)
		if perr != nil {
			return nil, perr
		}
		a, err = parent.Begin(action.WithColours(info.Container))
	} else {
		a, err = inc.rt.Begin(action.WithColours(info.Container))
	}
	if err != nil {
		return nil, err
	}
	inc.containers[info.Structure] = a
	return a, nil
}

// PassColour returns, for a participant action that belongs to a
// distributed structure, the colour in which resource handlers retain
// objects for the next stage (glued chains: Retain/lock in this colour
// to pass an object on). ok is false for plain transactions.
func (m *Manager) PassColour(a *action.Action) (colour.Colour, bool) {
	inc := m.cur.Load()
	inc.mu.Lock()
	defer inc.mu.Unlock()
	c, ok := inc.passColours[a.ID()]
	return c, ok
}

// endContainer commits or aborts the structure's container at this node.
// An unknown structure — none, a duplicate, or one lost to a crash with the
// locks it held — has nothing to end.
func (inc *incarnation) endContainer(id StructureID, commit bool) error {
	inc.mu.Lock()
	a, ok := inc.containers[id]
	delete(inc.containers, id)
	inc.mu.Unlock()
	switch {
	case !ok:
		return nil
	case commit:
		return a.Commit()
	}
	return a.Abort()
}

// --- distributed glued chains ---

// remoteJoint is the coordinator-side record of one glue joint: its
// identity and pass colour (mirrored at every node the chain touches),
// and its coordinator-local container action.
type remoteJoint struct {
	info  *structureInfo
	local *action.Action
}

// RemoteChain is a distributed glued chain (paper §3.2 over the
// cluster): each stage is a two-phase-commit transaction; objects a
// stage retains (resource handlers locking in Manager.PassColour, the
// coordinator via Txn.PassColour) stay locked — at their nodes — for
// the next stage, while everything else releases at the stage's commit.
// As in the local Chain, the joint for stages (i-1, i) ends as soon as
// stage i commits, so passed-then-dropped objects release promptly.
type RemoteChain struct {
	inc *incarnation
	footprint
	// joints and stages are guarded by footprint.mu.
	joints []*remoteJoint
	stages int
}

// BeginRemoteChain starts a distributed glued chain coordinated by this
// node.
func (m *Manager) BeginRemoteChain() *RemoteChain {
	return &RemoteChain{inc: m.cur.Load()}
}

// RunStage executes fn as the next top-level (distributed) action of
// the chain; see structures.Chain.RunStage for the semantics mirrored
// here.
func (c *RemoteChain) RunStage(ctx context.Context, fn func(*Txn) error) error {
	txn, err := c.beginStage()
	if err != nil {
		return err
	}
	if err := txn.run(ctx, fn); err != nil {
		// The previous joint stays, so a retry still finds the passed-on
		// locks.
		return err
	}
	c.afterStage(ctx)
	return nil
}

// beginStage creates the next joint and the stage transaction beneath
// it.
func (c *RemoteChain) beginStage() (*Txn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended {
		return nil, ErrStructureEnded
	}

	pass := colour.Fresh()
	var parentInfo *structureInfo
	begin := c.inc.rt.Begin
	if n := len(c.joints); n > 0 {
		parentInfo, begin = c.joints[n-1].info, c.joints[n-1].local.Begin
	}
	jointLocal, err := begin(action.WithColours(pass))
	if err != nil {
		return nil, fmt.Errorf("begin remote joint: %w", err)
	}
	joint := &remoteJoint{
		info: &structureInfo{
			Structure: StructureID(jointLocal.ID()),
			Container: pass,
			Parent:    parentInfo,
		},
		local: jointLocal,
	}

	own := colour.Fresh()
	stageLocal, err := jointLocal.Begin(
		action.WithColours(pass, own),
		action.WithWriteColour(own),
		action.WithReadColour(own),
	)
	if err != nil {
		_ = jointLocal.Abort()
		return nil, fmt.Errorf("begin remote stage: %w", err)
	}
	c.joints = append(c.joints, joint)
	c.stages++

	return c.inc.begin(stageLocal.ID(), stageLocal, &structureInfo{
		Structure: joint.info.Structure,
		Container: pass,
		Write:     own,
		ReadOwn:   true,
		Parent:    parentInfo,
	}, c.noteTouched), nil
}

// afterStage ends the joint before the one a stage just committed in.
func (c *RemoteChain) afterStage(ctx context.Context) {
	c.mu.Lock()
	if len(c.joints) < 2 {
		c.mu.Unlock()
		return
	}
	old := c.joints[len(c.joints)-2]
	c.joints = append(c.joints[:len(c.joints)-2], c.joints[len(c.joints)-1])
	nodes := slices.Clone(c.touched)
	c.mu.Unlock()
	_ = c.inc.endStructure(ctx, old.info.Structure, old.local, nodes, true)
}

// Stages returns how many stages have been started.
func (c *RemoteChain) Stages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stages
}

// End closes the chain, releasing any locks still retained by joints at
// every node. Effects of committed stages are permanent regardless.
func (c *RemoteChain) End(ctx context.Context) error {
	return c.finish(ctx, true)
}

// Cancel abandons the chain, releasing retained locks everywhere.
func (c *RemoteChain) Cancel(ctx context.Context) error {
	return c.finish(ctx, false)
}

func (c *RemoteChain) finish(ctx context.Context, commit bool) error {
	c.mu.Lock()
	nodes, err := c.endLocked()
	joints := c.joints
	c.joints = nil
	c.mu.Unlock()
	if err != nil {
		return err
	}

	// Innermost joints first: each is a child of its predecessor.
	for i := len(joints) - 1; i >= 0; i-- {
		_ = c.inc.endStructure(ctx, joints[i].info.Structure, joints[i].local, nodes, commit)
	}
	return nil
}

// PassColour returns the colour in which this transaction retains
// coordinator-local objects for the next stage of its chain (zero for
// transactions outside structures). Remote retention happens inside
// resource handlers via Manager.PassColour.
func (t *Txn) PassColour() colour.Colour {
	if t.structure == nil {
		return colour.None
	}
	return t.structure.Container
}
