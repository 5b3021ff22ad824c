package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"boundschema/internal/dirtree"
	"boundschema/internal/repl"
	"boundschema/internal/server"
	"boundschema/internal/vfs"
	"boundschema/internal/workload"
)

// node is one in-process server on a real on-disk journal.
type node struct {
	name    string
	srv     *server.Server
	addr    string
	journal string
}

// cluster is a booted workload topology: the primary, which clients
// talk to, and for a replicated workload its semisync replica.
type cluster struct {
	primary, replica *node
}

func (c *cluster) nodes() []*node {
	if c.replica == nil {
		return []*node{c.primary}
	}
	return []*node{c.primary, c.replica}
}

func (c *cluster) close() {
	// Replica first, so the primary's hub is not left waiting on it.
	if c.replica != nil {
		c.replica.srv.Close()
	}
	if c.primary != nil {
		c.primary.srv.Close()
	}
}

// bootNode runs the production boot sequence on a real file system:
// server.New → SetFS → OpenJournal → (ListenRepl) → Listen. Group
// commit is on, every fsync is real and there is no sync delay. Non-nil
// roots make the node a shard serving them; non-nil replAddr receives
// the address of its replication listener.
func bootNode(name, journal string, dir *dirtree.Directory, roots []string, replAddr *string) (*node, error) {
	srv, err := server.New(workload.WhitePagesSchema(), "whitepages", dir)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	srv.SetFS(vfs.OS{})
	srv.SetGroupCommit(true)
	srv.SetSyncDelay(0)
	if replAddr != nil {
		srv.SetReplicationMode(repl.SemiSync)
		srv.SetSemiSyncTimeout(2 * time.Second)
	}
	if err := srv.OpenJournal(journal); err != nil {
		srv.Close()
		return nil, fmt.Errorf("%s: open journal: %v", name, err)
	}
	if replAddr != nil {
		if *replAddr, err = srv.ListenRepl("127.0.0.1:0"); err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s: listen repl: %v", name, err)
		}
	}
	if roots != nil {
		srv.SetShardInfo(name, roots)
	}
	n := &node{name: name, srv: srv, journal: journal}
	if n.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, fmt.Errorf("%s: listen: %v", name, err)
	}
	return n, nil
}

// bootReplica boots a replica streaming from the primary's replication
// listener and waits until the primary's hub counts it subscribed.
func bootReplica(journal string, dir *dirtree.Directory, primary *node, replAddr string) (*node, error) {
	srv, err := server.New(workload.WhitePagesSchema(), "whitepages", dir)
	if err != nil {
		return nil, fmt.Errorf("replica: %v", err)
	}
	srv.SetFS(vfs.OS{})
	if err := srv.OpenJournal(journal); err != nil {
		srv.Close()
		return nil, fmt.Errorf("replica: open journal: %v", err)
	}
	if err := srv.StartReplica(replAddr); err != nil {
		srv.Close()
		return nil, fmt.Errorf("replica: %v", err)
	}
	srv.SetPrimaryClientAddr(primary.addr)
	n := &node{name: "replica", srv: srv, journal: journal}
	if n.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, fmt.Errorf("replica: listen: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for primary.srv.ReplStatus().Replicas < 1 {
		if time.Now().After(deadline) {
			srv.Close()
			return nil, fmt.Errorf("replica: not subscribed after 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return n, nil
}

// boot brings a workload's topology up once and returns it with its
// set-up time: from handing the directories to server.New until the
// primary and the replica accept connections. replica is nil for an
// unreplicated workload.
func boot(primary, replica *dirtree.Directory, jdir string) (*cluster, time.Duration, error) {
	c := &cluster{}
	start := time.Now()
	var replAddr string
	var listenRepl *string
	if replica != nil {
		listenRepl = &replAddr
	}
	var err error
	if c.primary, err = bootNode("primary", filepath.Join(jdir, "primary.journal"), primary, nil, listenRepl); err != nil {
		return nil, 0, err
	}
	if replica != nil {
		if c.replica, err = bootReplica(filepath.Join(jdir, "replica.journal"), replica, c.primary, replAddr); err != nil {
			c.close()
			return nil, 0, err
		}
	}
	return c, time.Since(start), nil
}

// snapshot returns a node's instance as LDIF bytes (Server.Snapshot).
func snapshot(srv *server.Server) ([]byte, error) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := srv.Snapshot(w); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restartNode closes a primary and times server.New + OpenJournal +
// Listen over the journal it wrote, starting from a fresh copy of its
// base directory (the same corpus the journal was written on top of).
func restartNode(n *node, base *dirtree.Directory) (*node, time.Duration, error) {
	if err := n.srv.Close(); err != nil {
		return nil, 0, fmt.Errorf("%s: close: %v", n.name, err)
	}
	start := time.Now()
	rn, err := bootNode(n.name, n.journal, base, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return rn, time.Since(start), nil
}

func makeTempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, pattern)
}
