// Package dense provides the dense float32 matrix substrate used by the
// GNN framework and the SpMM kernels: blocked parallel matrix multiply,
// element-wise ops, activations, losses and optimizers. It is a minimal
// stand-in for the dense-tensor side of PyTorch that PyG/DGL lean on.
package dense

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitmat"
)

// Matrix is a row-major dense float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps existing data (not copied) as a matrix.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("dense: data length %d != %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randomize fills the matrix with uniform values in [-scale, scale]
// using the given seed (Glorot-style init when scale = sqrt(6/(in+out))).
func (m *Matrix) Randomize(scale float32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// MatMul computes C = A x B with a parallel blocked kernel. Panics on
// dimension mismatch.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A x B into an existing output matrix.
func MatMulInto(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("dense: MatMulInto dimension mismatch")
	}
	c.Zero()
	bitmat.ParallelRows(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := a.Row(i)
			cr := c.Row(i)
			for k, av := range ar {
				if av == 0 {
					continue
				}
				br := b.Row(k)
				for j, bv := range br {
					cr[j] += av * bv
				}
			}
		}
	})
}

// Transpose returns Aᵀ.
func Transpose(a *Matrix) *Matrix {
	t := NewMatrix(a.Cols, a.Rows)
	bitmat.ParallelRows(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < a.Cols; j++ {
				t.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
			}
		}
	})
	return t
}

// Add computes A += B element-wise.
func (m *Matrix) Add(o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("dense: Add dimension mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// AddScaled computes A += s*B element-wise.
func (m *Matrix) AddScaled(o *Matrix, s float32) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("dense: AddScaled dimension mismatch")
	}
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddBias adds the bias row vector to every row of the matrix.
func (m *Matrix) AddBias(bias []float32) {
	if len(bias) != m.Cols {
		panic("dense: bias length mismatch")
	}
	bitmat.ParallelRows(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := m.Row(i)
			for j, b := range bias {
				r[j] += b
			}
		}
	})
}

// ReLU applies max(0, x) in place and returns a mask matrix for
// backprop (1 where input was positive).
func ReLU(m *Matrix) *Matrix {
	mask := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			m.Data[i] = 0
		}
	}
	return mask
}

// MulMask multiplies element-wise by a 0/1 mask (ReLU backward).
func (m *Matrix) MulMask(mask *Matrix) {
	for i := range m.Data {
		m.Data[i] *= mask.Data[i]
	}
}

// SoftmaxRows applies a numerically-stable softmax to each row in
// place.
func SoftmaxRows(m *Matrix) {
	bitmat.ParallelRows(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := m.Row(i)
			maxV := float32(math.Inf(-1))
			for _, v := range r {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for j, v := range r {
				e := float32(math.Exp(float64(v - maxV)))
				r[j] = e
				sum += float64(e)
			}
			inv := float32(1 / sum)
			for j := range r {
				r[j] *= inv
			}
		}
	})
}

// CrossEntropy computes the mean negative log-likelihood of the true
// labels over the index set idx, given per-row probability
// distributions (after SoftmaxRows), and the gradient with respect to
// the pre-softmax logits, already divided by len(idx). Rows outside idx
// get zero gradient (masked loss, as in semi-supervised node
// classification).
// An empty idx yields zero loss and an all-zero gradient: dividing by
// len(idx) == 0 would return a NaN loss and an Inf-scaled gradient that
// silently corrupts the optimizer's moment estimates.
func CrossEntropy(probs *Matrix, labels []int, idx []int) (float64, *Matrix) {
	grad := NewMatrix(probs.Rows, probs.Cols)
	if len(idx) == 0 {
		return 0, grad
	}
	var loss float64
	inv := float32(1.0 / float64(len(idx)))
	for _, i := range idx {
		r := probs.Row(i)
		g := grad.Row(i)
		y := labels[i]
		p := float64(r[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		for j, v := range r {
			g[j] = v * inv
		}
		g[y] -= inv
	}
	return loss / float64(len(idx)), grad
}

// Argmax returns the index of the largest element of each row.
func Argmax(m *Matrix) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		best := 0
		for j := 1; j < len(r); j++ {
			if r[j] > r[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// Accuracy returns the fraction of rows in idx whose argmax equals the
// label.
func Accuracy(logits *Matrix, labels []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	pred := Argmax(logits)
	correct := 0
	for _, i := range idx {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(idx))
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two same-shape matrices; used for kernel cross-validation.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: MaxAbsDiff dimension mismatch")
	}
	var maxD float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}
