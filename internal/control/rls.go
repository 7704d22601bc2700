package control

import "fmt"

// RLS is a recursive least-squares estimator with exponential forgetting:
// it fits y ≈ x·θ on line, discounting old samples by λ per step. The
// SEEC adaptive layer uses it (with one-hot setting features in the log
// domain) to learn the *actual* effect of each actuator setting when the
// observed behaviour diverges from the designer-declared multipliers.
type RLS struct {
	n      int
	lambda float64
	// buf is the whole estimate in one block: θ (n), then the covariance
	// matrix P row-major (n×n), then the reusable P·x buffer (n).
	buf []float64
}

// NewRLS builds an estimator over n features with forgetting factor
// lambda in (0, 1] and initial covariance p0·I (larger p0 = faster
// initial learning). It returns the estimator by value, so an owner can
// hold it inline.
func NewRLS(n int, lambda, p0 float64) RLS {
	if n <= 0 {
		panic("control: RLS with no features")
	}
	if lambda <= 0 || lambda > 1 {
		panic("control: RLS forgetting factor must be in (0, 1]")
	}
	if p0 <= 0 {
		panic("control: RLS initial covariance must be positive")
	}
	r := RLS{n: n, lambda: lambda, buf: make([]float64, n*n+2*n)}
	p := r.buf[n : n+n*n]
	for i := 0; i < n; i++ {
		p[i*n+i] = p0
	}
	return r
}

// Predict returns x·θ.
func (r *RLS) Predict(x []float64) float64 {
	if len(x) != r.n {
		panic(fmt.Sprintf("control: RLS feature length %d, want %d", len(x), r.n))
	}
	y := 0.0
	for i, xi := range x {
		y += xi * r.buf[i]
	}
	return y
}

// Update folds in one observation (x, y) and returns the prediction error
// before the update.
func (r *RLS) Update(x []float64, y float64) float64 {
	err := y - r.Predict(x)
	n := r.n
	theta, p, px := r.buf[:n], r.buf[n:n+n*n], r.buf[n+n*n:]
	// k = P·x / (λ + xᵀ·P·x)
	for i := 0; i < n; i++ {
		s := 0.0
		for j, pij := range p[i*n : i*n+n] {
			s += pij * x[j]
		}
		px[i] = s
	}
	denom := r.lambda
	for i := 0; i < n; i++ {
		denom += x[i] * px[i]
	}
	// θ += k·err ;  P = (P − k·xᵀ·P) / λ
	for i := 0; i < n; i++ {
		k := px[i] / denom
		theta[i] += k * err
	}
	for i := 0; i < n; i++ {
		ki := px[i] / denom
		row := p[i*n : i*n+n]
		for j := range row {
			row[j] = (row[j] - ki*px[j]) / r.lambda
		}
	}
	return err
}

// Theta returns the coefficient estimates in place: read-only, and
// current until the next Update.
func (r *RLS) Theta() []float64 { return r.buf[:r.n:r.n] }
