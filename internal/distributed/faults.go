package distributed

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dense"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/resil"
	"repro/internal/sched"
)

// FaultConfig threads the internal/resil fault-injection and recovery
// layer through the distributed pipeline. The zero value disables the
// whole machinery: every guarded call collapses to the plain code path
// at the cost of one struct comparison, so the fault-free hot path is
// unchanged.
//
// Injection sites fired by this package (occurrences count per site, in
// execution order):
//
//	sample       one Begin per sample-propagation attempt (TrainSampledSGC)
//	sample/xfer  one Corrupt per propagated sample result
//	venom/meta   one Begin per SPTC operator validation (a transient
//	             event here forces the SPTC→CSR degrade for that sample)
//	eval         one Begin per full-graph evaluation attempt
//	tile         per executed scheduler tile, when the pool was built
//	             WithInjector (internal/sched)
//
// Recovery is recomputation of pure functions, so a recovered run's
// training outcome is bit-identical to the fault-free run — the
// contract check.FaultEquivalence enforces. The exception is the
// degradation ladder's engine changes (SPTC→CSR, →serial CSR), which
// permute float32 summation order and therefore agree only to
// check.SampledTolerance.
type FaultConfig struct {
	// Inj is the armed fault injector; nil injects nothing (recovery
	// machinery still guards genuine failures when Retry or
	// StragglerAfter is set).
	Inj *resil.Injector
	// Retry bounds each site's recovery loop; the zero value means
	// resil defaults (3 attempts, 1ms deterministic backoff).
	Retry resil.RetryPolicy
	// StragglerAfter, when positive, speculatively re-dispatches an
	// attempt that has not finished within the duration (first result
	// wins; both copies are bit-identical). Note that backup copies
	// advance injector hit counters, so exact-occurrence scheduling at
	// the affected sites becomes timing-dependent — use straggler-only
	// plans with speculation.
	StragglerAfter time.Duration
}

// enabled reports whether any part of the fault machinery is on.
func (fc FaultConfig) enabled() bool {
	return fc.Inj != nil || fc.Retry != (resil.RetryPolicy{}) || fc.StragglerAfter > 0
}

// degradable reports whether err warrants stepping down the degradation
// ladder rather than aborting: injected faults and contained panics
// (tile panics, crash events) are executor failures the serial rung can
// absorb; anything else is a genuine input/configuration error.
func degradable(err error) bool {
	if resil.IsInjected(err) {
		return true
	}
	var pe *resil.PanicError
	var te *sched.TileError
	return errors.As(err, &pe) || errors.As(err, &te)
}

// propagateProtected runs one sample's propagation under the fault
// layer: protected attempts with source/receiver checksums over the
// simulated result transfer, deterministic retry, optional speculative
// re-dispatch, and — when the configured engine keeps failing on
// injected faults or contained panics — the final rung of the
// degradation ladder: one serial CSR execution on the known-good path.
// The winning attempt's private ledger is merged into ledger, so
// retried or duplicated work never reaches the deterministic
// observability snapshot.
func propagateProtected(s Sample, g *graph.Graph, x *dense.Matrix, cfg TrainSampledConfig, ledger *gnn.Ledger) (*dense.Matrix, error) {
	fc := cfg.Faults
	if !fc.enabled() {
		return propagateSample(s, g, x, cfg, ledger)
	}
	robs := fc.Inj.Obs()
	acfg := cfg
	acfg.Obs = nil
	if acfg.Pool != nil {
		acfg.Pool = acfg.Pool.WithObs(nil)
	}
	type propOut struct {
		prop *dense.Matrix
		led  *gnn.Ledger
	}
	var won propOut
	err := resil.Retry(fc.Retry, robs, "sample", func(int) error {
		v, err := resil.Speculate(fc.StragglerAfter, func() {
			robs.Volatile("resil/redispatch/sample").Inc()
		}, func() (any, error) {
			if err := fc.Inj.Begin("sample"); err != nil {
				return nil, err
			}
			local := &gnn.Ledger{}
			prop, err := propagateSample(s, g, x, acfg, local)
			if err != nil {
				return nil, err
			}
			want := resil.Checksum(prop.Data)
			fc.Inj.Corrupt("sample/xfer", prop.Data)
			if got := resil.Checksum(prop.Data); got != want {
				return nil, &resil.ChecksumError{Site: "sample/xfer", Want: want, Got: got}
			}
			return propOut{prop: prop, led: local}, nil
		})
		if err != nil {
			return err
		}
		won = v.(propOut)
		return nil
	})
	if err == nil {
		ledger.Merge(won.led)
		return won.prop, nil
	}
	if !degradable(err) {
		return nil, err
	}
	// Serial rung: the configured engine/pool exhausted its retries on
	// executor failures, so run this sample once on the serial CSR path
	// outside injection. This changes float32 summation order relative
	// to the SPTC engine, which is why retry-exhausting plans are held
	// to SampledTolerance instead of bit-identity.
	robs.Counter("resil/fallback/serial").Inc()
	dcfg := acfg
	dcfg.Engine = gnn.EngineCSR
	dcfg.Pool = sched.Serial()
	dcfg.Faults = FaultConfig{}
	local := &gnn.Ledger{}
	prop, derr := propagateSample(s, g, x, dcfg, local)
	if derr != nil {
		return nil, fmt.Errorf("distributed: serial degraded attempt also failed: %v (after %w)", derr, err)
	}
	ledger.Merge(local)
	return prop, nil
}

// evalProtected runs the full-graph evaluation propagation under the
// fault layer (site "eval"), with the same private-ledger merge
// discipline as propagateProtected.
func evalProtected(g *graph.Graph, x *dense.Matrix, cfg TrainSampledConfig, ledger *gnn.Ledger, makeOp func(*gnn.Ledger) (gnn.Operator, error)) (*dense.Matrix, error) {
	fc := cfg.Faults
	robs := fc.Inj.Obs()
	var out *dense.Matrix
	var won *gnn.Ledger
	err := resil.Retry(fc.Retry, robs, "eval", func(int) error {
		return resil.Protect(func() error {
			if err := fc.Inj.Begin("eval"); err != nil {
				return err
			}
			local := &gnn.Ledger{}
			op, err := makeOp(local)
			if err != nil {
				return err
			}
			h := x
			for i := 0; i < cfg.Hops; i++ {
				h = op.Mul(h)
			}
			out, won = h, local
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	ledger.Merge(won)
	return out, nil
}
