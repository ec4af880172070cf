package check

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/serve"
)

// This file is the durability oracle for the WAL-backed mutation path
// (internal/wal + serve.OpenWAL, DESIGN.md §15). The claim: crash
// recovery is invisible. A run that applies a mutation stream, is
// killed mid-stream (its WAL left with a torn tail), recovers from a
// snapshot plus log replay and then finishes the stream answers every
// query with bits identical to a run that was never interrupted — at
// every worker count, because both the engine construction and the
// epoch rebuilds are worker-count-deterministic.

// tornTail is garbage appended to a WAL to simulate the record a
// crash cut short: a plausible length prefix with a truncated body.
// Open must discard exactly this and keep every committed record.
func tornTail() []byte {
	return []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x13}
}

func appendBytes(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeScript covers every node (single client): recovery equivalence
// must hold for rows inside AND outside any mutation's influence ball.
func probeScript(n int) [][]*serve.Request {
	var reqs []*serve.Request
	for lo := 0; lo < n; lo += 16 {
		hi := lo + 16
		if hi > n {
			hi = n
		}
		nodes := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, v)
		}
		op := serve.OpEmbed
		if (lo/16)%3 == 2 {
			op = serve.OpClassify
		}
		reqs = append(reqs, &serve.Request{Op: op, Nodes: nodes})
	}
	return [][]*serve.Request{reqs}
}

// RecoveryEquivalence proves snapshot + WAL replay reconstructs the
// serving state bit-identically. For each worker count it runs:
//
//	uninterrupted: apply all nBatches mutation batches, probe.
//	crashed:       apply the first half through a WAL-backed server
//	               (snapshot taken a quarter of the way in), "crash"
//	               (stop without draining, append a torn tail to the
//	               log), then recover two ways — a fresh engine
//	               replaying the whole log, and the mid-stream
//	               snapshot replaying the suffix — finish the stream,
//	               probe.
//
// All three probes must agree bitwise and land on the same epoch.
// Each probe runs as soon as the last batch returns, with no wait.
// dir holds the WAL and snapshot scratch files.
func RecoveryEquivalence(g *graph.Graph, ecfg serve.EngineConfig, nBatches, opsPerBatch int, seed int64, dir string, workers []int) error {
	if workers == nil {
		workers = WorkerCounts()
	}
	if nBatches < 4 {
		return fmt.Errorf("check: recovery needs nBatches >= 4, got %d", nBatches)
	}
	n := g.N()
	ecfg.Mutable = true
	script, err := serve.GenerateMixedScript(serve.MixedScriptConfig{
		Seed: seed, Clients: 1, Requests: nBatches, N: n,
		WriteRatio: 1, MutOps: opsPerBatch,
	})
	if err != nil {
		return fmt.Errorf("check: recovery script: %w", err)
	}
	batches := make([][]dyn.Mutation, nBatches)
	for i, slot := range script[0] {
		batches[i] = slot.Muts
	}
	probe := probeScript(n)

	mk := func(w int) (*serve.Engine, error) {
		c := ecfg
		c.Workers = w
		return serve.NewEngine(g, c)
	}
	// Reuse the reordering across every build (bit-deterministic
	// across worker counts, DESIGN.md §8) — a speedup, not a weakening.
	eng0, err := mk(1)
	if err != nil {
		return fmt.Errorf("check: recovery reference engine: %w", err)
	}
	ecfg.Perm = eng0.Perm()

	kCrash := nBatches / 2
	kSnap := nBatches / 4
	for _, w := range workers {
		// Uninterrupted twin.
		twin, err := mk(w)
		if err != nil {
			return fmt.Errorf("check: recovery workers=%d: %w", w, err)
		}
		for i, b := range batches {
			if _, err := twin.Mutate(b); err != nil {
				return fmt.Errorf("check: recovery workers=%d batch %d: %w", w, i, err)
			}
		}
		want := serveResponses(twin, probe)
		wantEpoch := twin.Epoch()

		// Crashed run: first kCrash batches through a WAL-backed
		// server, snapshot at kSnap, then die mid-stream.
		walPath := filepath.Join(dir, fmt.Sprintf("recovery-w%d.wal", w))
		snapPath := filepath.Join(dir, fmt.Sprintf("recovery-w%d.snapshot", w))
		crashed, err := mk(w)
		if err != nil {
			return err
		}
		log, replayed, err := serve.OpenWAL(crashed, walPath)
		if err != nil {
			return fmt.Errorf("check: recovery workers=%d open WAL: %w", w, err)
		}
		if replayed != 0 {
			return fmt.Errorf("check: recovery workers=%d: fresh WAL replayed %d", w, replayed)
		}
		srv, err := serve.NewServer(crashed, serve.ServerConfig{WAL: log})
		if err != nil {
			return err
		}
		for i := 0; i < kCrash; i++ {
			if _, err := srv.SubmitMutate(batches[i]); err != nil {
				return fmt.Errorf("check: recovery workers=%d submit %d: %w", w, i, err)
			}
			if i+1 == kSnap {
				if err := crashed.Snapshot(snapPath); err != nil {
					return fmt.Errorf("check: recovery workers=%d snapshot: %w", w, err)
				}
			}
		}
		// "Crash": no drain beyond what Commit already forced, and the
		// record the process was mid-write lands as a torn tail.
		srv.Close()
		log.Close()
		if err := appendBytes(walPath, tornTail()); err != nil {
			return err
		}

		finish := func(label string, e *serve.Engine) error {
			for i := kCrash; i < nBatches; i++ {
				if _, err := e.Mutate(batches[i]); err != nil {
					return fmt.Errorf("check: recovery workers=%d %s batch %d: %w", w, label, i, err)
				}
			}
			if e.Epoch() != wantEpoch {
				return fmt.Errorf("check: recovery workers=%d %s: epoch %d, want %d", w, label, e.Epoch(), wantEpoch)
			}
			return bitwiseResponses(fmt.Sprintf("workers=%d %s", w, label), serveResponses(e, probe), want)
		}

		// Recovery path 1: fresh engine, whole log.
		fresh, err := mk(w)
		if err != nil {
			return err
		}
		logA, replayed, err := serve.OpenWAL(fresh, walPath)
		if err != nil {
			return fmt.Errorf("check: recovery workers=%d reopen WAL: %w", w, err)
		}
		logA.Close()
		if replayed != kCrash {
			return fmt.Errorf("check: recovery workers=%d: replayed %d, want %d", w, replayed, kCrash)
		}
		if err := finish("full-replay", fresh); err != nil {
			return err
		}

		// Recovery path 2: mid-stream snapshot plus the log suffix.
		// Re-tear the tail — path 1's open truncated it away.
		if err := appendBytes(walPath, tornTail()); err != nil {
			return err
		}
		rc := ecfg
		rc.Workers = w
		rc.Perm = nil
		restored, err := serve.RestoreEngine(snapPath, rc)
		if err != nil {
			return fmt.Errorf("check: recovery workers=%d restore: %w", w, err)
		}
		if restored.Epoch() != uint64(kSnap) {
			return fmt.Errorf("check: recovery workers=%d: snapshot epoch %d, want %d", w, restored.Epoch(), kSnap)
		}
		logB, replayed, err := serve.OpenWAL(restored, walPath)
		if err != nil {
			return fmt.Errorf("check: recovery workers=%d snapshot reopen: %w", w, err)
		}
		logB.Close()
		if replayed != kCrash-kSnap {
			return fmt.Errorf("check: recovery workers=%d: suffix replayed %d, want %d", w, replayed, kCrash-kSnap)
		}
		if err := finish("snapshot+suffix", restored); err != nil {
			return err
		}
	}
	return nil
}
