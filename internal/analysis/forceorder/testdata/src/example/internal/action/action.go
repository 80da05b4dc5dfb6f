package action

// Action stubs the node-local action a one-phase commit ends.
type Action struct{}

// Sink is where CommitWith sends the write set.
type Sink interface{ ApplyBatch() error }

func (a *Action) CommitWith(s Sink) error { return s.ApplyBatch() }
