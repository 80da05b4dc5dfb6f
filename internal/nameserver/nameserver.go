// Package nameserver implements the paper's example (ii): a replicated
// name server whose operations (add, remove, lookup) are structured as
// atomic actions, invoked as top-level independent actions from within
// distributed applications — "there is no reason to undo the name server
// updates should the invoking action abort".
//
// The server is a node service hosting a persistent directory object;
// the client replicates it across nodes with write-all/read-one and runs
// every update as its own distributed action, independent of whatever
// application action invoked it.
package nameserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/replica"
	"mca/internal/rpc"
)

// ResourceName is the resource under which servers register themselves.
const ResourceName = "nameserver"

// ErrNotFound is returned by Lookup for unbound names.
var ErrNotFound = errors.New("nameserver: name not bound")

// directory is the replicated state: name -> value.
type directory map[string]string

// Server hosts one replica of the name directory on a node.
type Server struct {
	objID ids.ObjectID
	reg   atomic.Pointer[object.Registry[directory]] // this incarnation's activated directory
}

var _ node.Service = (*Server)(nil)

// NewServer installs a name-server replica on the node and registers it
// with the node's distributed-action manager.
func NewServer(nd *node.Node, mgr *dist.Manager) *Server {
	s := &Server{objID: ids.NewObjectID()}
	nd.Host(s)
	mgr.RegisterResource(ResourceName, s)
	return s
}

// Register implements node.Service: the directory activated before a
// crash died with it.
func (s *Server) Register(nd *node.Node, _ *rpc.Peer) {
	s.reg.Store(object.NewRegistry(nd.Stable(), func(ids.ObjectID) directory { return directory{} }))
}

// Recover implements node.Service. The directory activates on first use:
// from stable storage, or empty when the store has no state for it.
func (s *Server) Recover(context.Context, *node.Node) {}

// Wire types.
type bindArg struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

type nameArg struct {
	Name string `json:"name"`
}

type lookupResp struct {
	Value string `json:"value"`
	Found bool   `json:"found"`
}

type listResp struct {
	Names []string `json:"names"`
}

// Invoke implements dist.Resource.
func (s *Server) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	dir, err := s.reg.Load().Get(s.objID)
	if err != nil {
		return nil, err
	}
	switch op {
	case "add":
		var in bindArg
		if err := json.Unmarshal(arg, &in); err != nil {
			return nil, fmt.Errorf("nameserver add: %w", err)
		}
		err = dir.Write(a, func(d *directory) error {
			if *d == nil {
				*d = directory{}
			}
			(*d)[in.Name] = in.Value
			return nil
		})
		if err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	case "remove":
		var in nameArg
		if err := json.Unmarshal(arg, &in); err != nil {
			return nil, fmt.Errorf("nameserver remove: %w", err)
		}
		err = dir.Write(a, func(d *directory) error {
			delete(*d, in.Name)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return []byte("{}"), nil
	case "lookup":
		var in nameArg
		if err := json.Unmarshal(arg, &in); err != nil {
			return nil, fmt.Errorf("nameserver lookup: %w", err)
		}
		var out lookupResp
		err = dir.Read(a, func(d directory) error {
			out.Value, out.Found = d[in.Name]
			return nil
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	case "list":
		var out listResp
		err = dir.Read(a, func(d directory) error {
			for name := range d {
				out.Names = append(out.Names, name)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	default:
		return nil, fmt.Errorf("nameserver: unknown op %q", op)
	}
}

// Client talks to the replicated name server. Every update runs as its
// own distributed action — the top-level independent invocation of the
// paper — so an enclosing application action's abort never undoes name
// bindings.
type Client struct {
	mgr   *dist.Manager
	group *replica.Group
}

// NewClient builds a client coordinating through mgr against replicas at
// the given nodes.
func NewClient(mgr *dist.Manager, replicas ...ids.NodeID) *Client {
	return &Client{mgr: mgr, group: replica.NewGroup(ResourceName, replicas...)}
}

// Add binds name to value at every replica, atomically.
func (c *Client) Add(ctx context.Context, name, value string) error {
	return c.mgr.Run(ctx, func(txn *dist.Txn) error {
		return c.group.Write(ctx, txn, "add", bindArg{Name: name, Value: value})
	})
}

// Remove unbinds name at every replica, atomically.
func (c *Client) Remove(ctx context.Context, name string) error {
	return c.mgr.Run(ctx, func(txn *dist.Txn) error {
		return c.group.Write(ctx, txn, "remove", nameArg{Name: name})
	})
}

// Lookup resolves name at the first reachable replica.
func (c *Client) Lookup(ctx context.Context, name string) (string, error) {
	var out lookupResp
	err := c.mgr.Run(ctx, func(txn *dist.Txn) error {
		return c.group.Read(ctx, txn, "lookup", nameArg{Name: name}, &out)
	})
	if err != nil {
		return "", err
	}
	if !out.Found {
		return "", fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return out.Value, nil
}

// AddAsync launches Add in the background (the asynchronous top-level
// independent invocation of fig 7b) and returns a channel delivering the
// outcome.
func (c *Client) AddAsync(ctx context.Context, name, value string) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- c.Add(ctx, name, value)
	}()
	return done
}
