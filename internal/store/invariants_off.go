//go:build !invariants

package store

import "mca/internal/ids"

// stateSums is empty without the invariants build tag.
type stateSums struct{}

func (stateSums) installed(ids.ObjectID, State)   {}
func (stateSums) deleted(ids.ObjectID)            {}
func (stateSums) replayed(map[ids.ObjectID]State) {}
func (stateSums) check(ids.ObjectID, State)       {}
func (stateSums) checkAll(map[ids.ObjectID]State) {}
