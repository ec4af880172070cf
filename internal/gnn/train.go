package gnn

import (
	"math/rand"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/resil"
)

// Split holds node-classification index sets.
type Split struct {
	Train, Val, Test []int
}

// RandomSplit partitions [0, n) into train/val/test by the given
// fractions, deterministically per seed. Fractions are clamped so the
// three sets always partition [0, n): degenerate inputs (negative
// fractions, trainFrac+valFrac > 1, rounding pushing the train+val
// count past n) shrink the later sets instead of panicking.
func RandomSplit(n int, trainFrac, valFrac float64, seed int64) Split {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	nTrain := clampCount(float64(n)*trainFrac, n)
	nVal := clampCount(float64(n)*valFrac, n-nTrain)
	return Split{
		Train: perm[:nTrain],
		Val:   perm[nTrain : nTrain+nVal],
		Test:  perm[nTrain+nVal:],
	}
}

// clampCount truncates v to an int in [0, max].
func clampCount(v float64, max int) int {
	k := int(v)
	if k < 0 {
		return 0
	}
	if k > max {
		return max
	}
	return k
}

// TrainConfig controls the training loop.
type TrainConfig struct {
	Epochs int
	LR     float32
	WD     float32
	// Obs, when set, records the run in the observability registry:
	// per-epoch series (train/loss, train/val_acc), epoch counters and
	// final accuracy gauges. The loop runs on one goroutine, so every
	// recorded value is deterministic for a fixed seed.
	Obs *obs.Registry
	// CheckpointEvery, when positive together with Checkpoint, hands a
	// deep-copied training snapshot to the Checkpoint sink after every
	// CheckpointEvery-th completed epoch.
	CheckpointEvery int
	// Checkpoint receives the snapshots (MemStore.Save slots in
	// directly). The callback owns the checkpoint; Train never touches
	// it again.
	Checkpoint func(*Checkpoint)
	// Resume, when non-nil, restores the checkpoint before the first
	// epoch — parameters, optimizer moments, loss history and the
	// early-stopping tracker — and continues at epoch Resume.Epoch. A
	// resumed run is bit-identical to the uninterrupted one from that
	// point on. The checkpoint must match the model's parameter shapes
	// (it panics otherwise: resuming the wrong model is a programming
	// error, not a runtime fault).
	Resume *Checkpoint
	// Inj, when armed, fires injection site "train/epoch" once per
	// epoch before the epoch runs; a scheduled crash event there panics
	// out of Train, modeling a mid-training process kill that a
	// checkpointed caller recovers from (contain it with resil.Protect,
	// then rerun with Resume).
	Inj *resil.Injector
}

// DefaultTrainConfig returns the settings the Table-5 runs use.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 120, LR: 0.02, WD: 5e-4}
}

// TrainResult reports a training run.
type TrainResult struct {
	FinalLoss    float64
	TrainAcc     float64
	ValAcc       float64
	TestAcc      float64
	LossHistory  []float64
	BestValEpoch int
}

// Train fits the model full-batch with Adam and masked cross-entropy —
// the forward pass of node classification the paper's accuracy
// evaluation (Table 5) runs.
//
// Early-stopping protocol (the one the Planetoid evaluations assume):
// when a validation set is present, the parameters achieving the best
// validation accuracy are snapshotted, restored after the last epoch,
// and the reported TrainAcc/ValAcc/TestAcc are evaluated there — not at
// the final epoch, whose model may have overfit past the
// validation-selected one. The model is left holding the best-val
// parameters. Without a validation set, the final-epoch parameters are
// evaluated and kept.
func Train(m Model, x *dense.Matrix, labels []int, split Split, cfg TrainConfig) TrainResult {
	if cfg.Epochs == 0 {
		cfg = DefaultTrainConfig()
	}
	ob := cfg.Obs // nil-safe
	opt := dense.NewAdam(cfg.LR)
	opt.WD = cfg.WD
	var res TrainResult
	bestVal := -1.0
	var bestParams []*dense.Matrix
	start := 0
	if cp := cfg.Resume; cp != nil {
		restoreParams(m.Params(), cp.Params)
		if err := opt.ImportState(m.Params(), cp.Opt); err != nil {
			panic("gnn: Train resume: " + err.Error())
		}
		res.LossHistory = append(res.LossHistory, cp.LossHistory...)
		if n := len(res.LossHistory); n > 0 {
			res.FinalLoss = res.LossHistory[n-1]
		}
		bestVal = cp.BestVal
		res.BestValEpoch = cp.BestValEpoch
		if cp.BestParams != nil {
			bestParams = cloneParams(cp.BestParams)
		}
		start = cp.Epoch
	}
	for epoch := start; epoch < cfg.Epochs; epoch++ {
		cfg.Inj.Exec("train/epoch")
		// Snapshot before this epoch's update: the validation accuracy
		// below is computed from the pre-step logits, so the matching
		// parameters are the pre-step ones.
		var preStep []*dense.Matrix
		if len(split.Val) > 0 {
			preStep = cloneParams(m.Params())
		}
		m.ZeroGrads()
		logits := m.Forward(x)
		probs := logits.Clone()
		dense.SoftmaxRows(probs)
		loss, grad := dense.CrossEntropy(probs, labels, split.Train)
		m.Backward(grad)
		opt.Step(m.Params(), m.Grads())
		res.LossHistory = append(res.LossHistory, loss)
		res.FinalLoss = loss
		ob.Series("train/loss").Append(loss)
		if len(split.Val) > 0 {
			va := dense.Accuracy(logits, labels, split.Val)
			ob.Series("train/val_acc").Append(va)
			if va > bestVal {
				bestVal = va
				res.BestValEpoch = epoch
				bestParams = preStep
			}
		}
		if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil && (epoch+1)%cfg.CheckpointEvery == 0 {
			cfg.Checkpoint(snapshotCheckpoint(m, opt, epoch+1, &res, bestVal, bestParams))
		}
	}
	if bestParams != nil {
		restoreParams(m.Params(), bestParams)
	}
	logits := m.Forward(x)
	res.TrainAcc = dense.Accuracy(logits, labels, split.Train)
	res.ValAcc = dense.Accuracy(logits, labels, split.Val)
	res.TestAcc = dense.Accuracy(logits, labels, split.Test)
	ob.Counter("train/runs").Inc()
	ob.Counter("train/epochs").Add(int64(cfg.Epochs - start))
	ob.Gauge("train/best_val_epoch").Set(float64(res.BestValEpoch))
	ob.Gauge("train/train_acc").Set(res.TrainAcc)
	ob.Gauge("train/val_acc").Set(res.ValAcc)
	ob.Gauge("train/test_acc").Set(res.TestAcc)
	return res
}

// cloneParams deep-copies a parameter set.
func cloneParams(ps []*dense.Matrix) []*dense.Matrix {
	out := make([]*dense.Matrix, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// restoreParams copies src values into the live parameter matrices.
func restoreParams(dst, src []*dense.Matrix) {
	for i, p := range dst {
		copy(p.Data, src[i].Data)
	}
}
