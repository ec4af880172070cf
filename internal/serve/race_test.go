package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/resil"
)

// TestRaceHammer drives 8 concurrent closed-loop clients against an
// in-process server with a tiny row cache (constant eviction churn),
// a one-shard handle cache, and one injected straggler — the
// workload the ci.sh GOMAXPROCS=2 race matrix runs under -race. The
// concurrent responses must be bit-identical to a serial replay of
// the same script, which is what makes the hammer a correctness test
// rather than just a crash test.
func TestRaceHammer(t *testing.T) {
	g := testGraph(t, 512)
	plan, err := resil.ParsePlan("straggler@serve/batch:3:5ms")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mk := func(inj *resil.Injector) *Engine {
		eng, err := NewEngine(g, EngineConfig{
			Seed: 11, ShardRows: 64, CacheRows: 24, ShardCap: 2,
			Obs: reg, Inj: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	script, err := GenerateScript(ScriptConfig{
		Seed: 99, Clients: 8, Requests: 25, N: 512, MaxNodes: 6, ClassifyEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: same script, no faults, one at a time.
	ref := mk(nil)
	want := make([][]uint64, len(script))
	for c, reqs := range script {
		want[c] = make([]uint64, len(reqs))
		for i, r := range reqs {
			want[c][i] = ref.ServeBatch([]*Request{r}, false)[0].Checksum()
		}
	}

	srv, err := NewServer(mk(resil.NewInjector(plan, reg)), ServerConfig{
		QueueLimit: 64, DegradeDepth: 0, // keep the bit-exact path
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got := make([][]uint64, len(script))
	var wg sync.WaitGroup
	errs := make(chan error, len(script))
	for c, reqs := range script {
		got[c] = make([]uint64, len(reqs))
		wg.Add(1)
		go func(c int, reqs []*Request) {
			defer wg.Done()
			for i, r := range reqs {
				resp, err := srv.Submit(r)
				if err != nil {
					errs <- err
					return
				}
				got[c][i] = resp.Checksum()
			}
		}(c, reqs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range want {
		for i := range want[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("client %d request %d: concurrent checksum %x != serial %x", c, i, got[c][i], want[c][i])
			}
		}
	}
	// The cache and batch machinery must actually have been exercised.
	s := reg.Snapshot()
	if s.Volatile["serve/cache/evict"] == 0 {
		t.Error("no row-cache eviction churn under the hammer")
	}
	if s.Counters["serve/requests"] == 0 {
		t.Error("serve/requests not counted")
	}
	if s.Counters["resil/injected/straggler"] == 0 {
		t.Error("injected straggler never fired")
	}
}

// TestMutationHammer drives 8 concurrent readers against 1 mutator
// under -race: the epoch-fence correctness claim. Because ServeBatch
// stamps Response.Epoch under the same lock hold that picks the
// operands, every response must be a pure function of some PREFIX of
// the mutation stream — its checksum must equal the twin-precomputed
// checksum for exactly the epoch it reports, and no query may error
// while mutations land. The hybrid case forces staleness rebuilds, so
// reads also land straight after epochs that moved every row and
// dropped every shard handle.
func TestMutationHammer(t *testing.T) {
	community, err := datasets.Family("community", 40, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		g        *graph.Graph
		cfg      EngineConfig
		rebuilds bool // the stream must trigger at least one rebuild
	}{
		{"csr", testGraph(t, 256), EngineConfig{Seed: 11, ShardRows: 64, CacheRows: 24, ShardCap: 2, Mode: ModeCSR}, false},
		{"hybrid-rebuild", community, EngineConfig{Seed: 11, ShardRows: 16, CacheRows: 24, ShardCap: 2, Mode: ModeHybrid, StalenessBudget: 1e-12}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mutationHammer(t, c.g, c.cfg, c.rebuilds) })
	}
}

func mutationHammer(t *testing.T, g *graph.Graph, cfg EngineConfig, wantRebuild bool) {
	n := g.N()
	script, err := GenerateMixedScript(MixedScriptConfig{
		Seed: 5, Clients: 1, Requests: 12, N: n, WriteRatio: 1, MutOps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]dyn.Mutation, len(script[0]))
	for i, slot := range script[0] {
		bs[i] = slot.Muts
	}
	var nodes []int // ascending, distinct, in range
	for _, v := range []int{0, 3, 17, 63, n / 2, n - 1} {
		if v < n && (len(nodes) == 0 || v > nodes[len(nodes)-1]) {
			nodes = append(nodes, v)
		}
	}
	probe := &Request{Op: OpEmbed, Nodes: nodes}

	// Twin: the expected probe checksum at EVERY epoch, applied
	// batch by batch on an identical engine.
	twin := mutableEngine(t, g, cfg)
	// Seed the live engine from the twin's boot layout, captured before
	// any batch can move it (repair swaps and rebuilds change Perm), so
	// both engines start the stream from the same permutation and the
	// live engine skips the (identical) re-reorder.
	bootPerm := twin.Perm()
	expected := make([]uint64, len(bs)+1)
	expected[0] = twin.ServeBatch([]*Request{probe}, false)[0].Checksum()
	for i, b := range bs {
		if _, err := twin.Mutate(b); err != nil {
			t.Fatal(err)
		}
		expected[i+1] = twin.ServeBatch([]*Request{probe}, false)[0].Checksum()
	}
	cfg.Perm = bootPerm

	live := mutableEngine(t, g, cfg)
	srv, err := NewServer(live, ServerConfig{QueueLimit: 64, DegradeDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const readers, iters = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := srv.Submit(probe)
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: %v", r, i, err)
					return
				}
				ep := resp.Epoch
				if ep > uint64(len(bs)) {
					errs <- fmt.Errorf("reader %d iter %d: epoch %d beyond stream", r, i, ep)
					return
				}
				if got := resp.Checksum(); got != expected[ep] {
					errs <- fmt.Errorf("reader %d iter %d: epoch %d checksum %x, want %x — response is not a pure function of the stream prefix", r, i, ep, got, expected[ep])
					return
				}
			}
		}(r)
	}
	rebuilds := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, b := range bs {
			mr, err := srv.SubmitMutate(b)
			if err != nil {
				errs <- fmt.Errorf("mutator batch %d: %v", i, err)
				return
			}
			if mr.Epoch != uint64(i+1) {
				errs <- fmt.Errorf("mutator batch %d: epoch %d", i, mr.Epoch)
				return
			}
			if mr.Batch.Rebuilt {
				rebuilds++
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if wantRebuild && rebuilds == 0 {
		t.Fatal("no mutation batch triggered a rebuild")
	}

	// Final state: the last epoch's bits, exactly.
	resp, err := srv.Submit(probe)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != uint64(len(bs)) {
		t.Fatalf("final epoch %d, want %d", resp.Epoch, len(bs))
	}
	if got := resp.Checksum(); got != expected[len(bs)] {
		t.Fatalf("final checksum %x, want %x", got, expected[len(bs)])
	}
}
