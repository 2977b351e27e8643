package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/remote"
	"repro/internal/server"
)

// paperConfig is the world every workload serves: the paper's scale,
// four shards as both README deployments run it, every other setting
// at its default.
func paperConfig() repro.Config {
	cfg := repro.PaperConfig()
	cfg.Shards = 4
	return cfg
}

// routerViewCache is the router view-cache capacity of README's
// distributed recipe.
const routerViewCache = 4096

// workerOwns is the distributed shard placement: two workers.
var workerOwns = [][]int{{0, 2}, {1, 3}}

// countingListener counts every byte read or written on the
// connections it accepts: the wire volume of the RPC hop.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// worker is one in-process shard worker: a replica world behind a
// remote.Server on a loopback listener.
type worker struct {
	world *repro.World
	srv   *remote.Server
	addr  string
	done  chan struct{}
}

// Stack is the system under test for one workload, listening on a
// loopback port.
type Stack struct {
	World   *repro.World // the serving world (the router in distributed)
	Srv     *server.Server
	BaseURL string
	// WireBytes counts bytes on the worker listeners (distributed only).
	WireBytes atomic.Int64
	// WALDir is the persistence directory (ingest-mix only).
	WALDir string

	http    *http.Server
	served  chan struct{}
	workers []*worker
}

func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// buildWorlds builds n worlds of cfg concurrently (a router and its
// workers boot side by side).
func buildWorlds(cfgs []repro.Config) ([]*repro.World, error) {
	out := make([]*repro.World, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = repro.NewWorld(cfgs[i])
		}(i)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// StartStack builds the workload's system: worlds, persistence,
// workers and the HTTP server. tmpRoot holds the persistence directory.
func StartStack(wl, tmpRoot string) (*Stack, error) {
	st := &Stack{}
	cfg := paperConfig()
	switch wl {
	case "ingest-mix":
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, fmt.Errorf("persistence dir: %w", err)
		}
		st.WALDir = dir
		w, _, err := repro.OpenWorld(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("opening world: %w", err)
		}
		st.World = w
	case "distributed":
		rcfg := cfg
		rcfg.RemoteViewCache = routerViewCache
		worlds, err := buildWorlds([]repro.Config{rcfg, cfg, cfg})
		if err != nil {
			return nil, fmt.Errorf("building worlds: %w", err)
		}
		st.World = worlds[0]
		top := remote.Topology{Shards: cfg.Shards}
		for i, owns := range workerOwns {
			wk, err := st.startWorker(worlds[1+i], owns)
			if err != nil {
				st.Close()
				return nil, err
			}
			top.Workers = append(top.Workers, remote.Worker{Addr: wk.addr, Owns: owns})
		}
		set, err := remote.NewShardSet(top, remote.ClientConfig{})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("shard set: %w", err)
		}
		if err := st.World.AttachRemote(set); err != nil {
			set.Close()
			st.Close()
			return nil, fmt.Errorf("attaching workers: %w", err)
		}
	default:
		w, err := repro.NewWorld(cfg)
		if err != nil {
			return nil, fmt.Errorf("building world: %w", err)
		}
		st.World = w
	}
	lis, err := listenLoopback()
	if err != nil {
		st.Close()
		return nil, err
	}
	st.Srv = server.New(st.World, server.Config{})
	st.http = &http.Server{Handler: st.Srv.Handler()}
	st.served = make(chan struct{})
	st.BaseURL = "http://" + lis.Addr().String()
	go func() {
		defer close(st.served)
		_ = st.http.Serve(lis) // returns ErrServerClosed on Shutdown
	}()
	return st, nil
}

func (st *Stack) startWorker(w *repro.World, owns []int) (*worker, error) {
	be, err := repro.NewShardBackend(w, owns)
	if err != nil {
		return nil, fmt.Errorf("shard backend: %w", err)
	}
	lis, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	wk := &worker{world: w, srv: remote.NewServer(be), addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(wk.done)
		_ = wk.srv.Serve(countingListener{Listener: lis, bytes: &st.WireBytes}) // returns once Close shuts the listener
	}()
	st.workers = append(st.workers, wk)
	return wk, nil
}

// WALBytes is the current size of the write-ahead log files.
func (st *Stack) WALBytes() int64 {
	if st.WALDir == "" {
		return 0
	}
	files, _ := filepath.Glob(filepath.Join(st.WALDir, "wal-*.log"))
	var n int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// Close stops the HTTP server, drains the coalescer, detaches and
// stops the workers and closes persistence, waiting for every
// goroutine the stack started.
func (st *Stack) Close() {
	if st.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = st.http.Shutdown(ctx) // a timeout leaves nothing to retry
		cancel()
		<-st.served
	}
	if st.Srv != nil {
		st.Srv.Close()
	}
	if st.World != nil && st.World.Remote() != nil {
		st.World.Remote().Close()
	}
	for _, wk := range st.workers {
		wk.srv.Close()
		<-wk.done
	}
	if st.WALDir != "" {
		if st.World != nil {
			_ = st.World.ClosePersistence() // the directory is removed next
		}
		_ = os.RemoveAll(st.WALDir)
	}
}
