package main

import (
	"os"
	"path/filepath"
	"time"

	"aheft/internal/durable"
	"aheft/internal/feedback"
	"aheft/internal/history"
	"aheft/internal/server"
)

// tracedCrash is crash_recovery's traced pass. Its operation is one
// in-process recovery — server.Open on a restored copy of the crashed
// directory — with the read side of durability replayed underneath:
// load the logs, decode every journalled submission, restore every
// tracker. The write-side rungs are read first, under op.ladder, while
// mirrors are advanced to the half-way states the restore rung needs.
func tracedCrash(r *result, sp spec, in *inputs, crashed string, o options) {
	g, err := newRig(sp, in)
	if err != nil {
		r.errorf("traced pass: %v", err)
		return
	}
	g.recording = true
	n := sp.crashN
	bodies := make([][]byte, n)
	cfgs := make([]feedback.Config, n)
	states := make([]*feedback.TrackerState, n)
	for i := 0; i < n; i++ {
		v := in.variants[i%len(in.variants)]
		bodies[i] = v.bodies[1+i%in.clients]
		lad := g.tc.newOp("op.ladder")
		if i < len(in.variants) {
			g.rungNewModel(lad, v)
			g.rungAdmission(lad)
			g.rungAnalyticKernel(g.rungRunPolicy(lad, v), v)
		}
		m, err := g.liveLadder(lad, v, true)
		g.tc.end(lad)
		if err != nil {
			r.errorf("traced pass: %v", err)
			return
		}
		cfgs[i], states[i] = m.cfg, m.last
		_ = m.store.Close()
		os.RemoveAll(m.dir)
	}

	shardDirs, err := filepath.Glob(filepath.Join(crashed, "shard-*"))
	if err != nil || len(shardDirs) == 0 {
		r.errorf("traced pass: no shard directories in %s (%v)", crashed, err)
		return
	}
	cfg := server.Config{DataDir: g.dataDir(), WALSync: "interval", SnapshotInterval: time.Hour}
	budget := time.Duration(o.seconds / 3 * float64(time.Second))
	began := time.Now()
	for cycle := 0; cycle < 2 || time.Since(began) < budget; cycle++ {
		g.recording = cycle%2 == 0
		if err := os.RemoveAll(cfg.DataDir); err != nil {
			r.errorf("traced pass: %v", err)
			return
		}
		if err := copyTree(crashed, cfg.DataDir); err != nil {
			r.errorf("traced pass: %v", err)
			return
		}
		root := 0
		if g.recording {
			root = g.tc.newOp("op.recover")
		}
		var srv *server.Server
		d, h := g.handle(root, func() { srv, err = server.Open(cfg) })
		if err != nil {
			r.errorf("traced pass: recover: %v", err)
			return
		}
		recovered := srv.MetricsSnapshot().RecoveredWorkflows
		srv.Crash()
		if int(recovered) != n {
			r.errorf("traced pass: recovered %d workflows, want %d", recovered, n)
			return
		}
		if !g.recording {
			g.bareHandle = append(g.bareHandle, float64(d))
			continue
		}
		g.tc.end(root)
		g.tc.shadow(root, "durable.load", func() {
			for _, dir := range shardDirs {
				_, _ = durable.Load(dir)
			}
		})
		for i := 0; i < n; i++ {
			g.rungDecodeSubmission(root, bodies[i])
			c := cfgs[i]
			c.History = history.New(0)
			g.tc.shadow(root, "feedback.restore", func() { _, _ = feedback.Restore(c, states[i]) })
		}
		g.prim = append(g.prim, primaryOp{root: root, handleNs: d, allocs: h.Allocs, bytes: h.Bytes})
	}
	g.finish(r)
}
